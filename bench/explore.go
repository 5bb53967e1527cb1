package main

import (
	"context"
	"fmt"
	"time"

	"partita/internal/apps"
	"partita/internal/budget"
	"partita/internal/cdfg"
	"partita/internal/cprog"
	"partita/internal/ilp"
	"partita/internal/imp"
	"partita/internal/kernel"
	"partita/internal/lower"
	"partita/internal/mop"
	"partita/internal/profile"
	"partita/internal/selector"
	"partita/internal/sim"
)

// explorePool is the designer's fixed program pool: the four bundled
// mini-C applications plus 60 random DSP programs (apps.RandomWorkload
// seeds 1-60), all under Problem 1.
func explorePool() ([]apps.Workload, error) {
	var pool []apps.Workload
	for _, gen := range []func() (apps.Workload, error){
		apps.GSMEncoderWorkload, apps.GSMDecoderWorkload, apps.JPEGEncoderWorkload, apps.JPEGDecoderWorkload,
	} {
		w, err := gen()
		if err != nil {
			return nil, err
		}
		pool = append(pool, w)
	}
	for s := int64(1); s <= 60; s++ {
		w, err := apps.RandomWorkload(s)
		if err != nil {
			return nil, err
		}
		pool = append(pool, w)
	}
	return pool, nil
}

// sweepGains are the 16 ascending sweep points, 5% to 95% of reachable.
func sweepGains(maxGain int64) []int64 {
	gains := make([]int64, 16)
	for j := range gains {
		gains[j] = maxGain * int64(5+6*j) / 100
	}
	return gains
}

func exploreKey(prog string, point int) string { return fmt.Sprintf("explore/%s/%d", prog, point) }

// stageTimes are the front-end stage durations of one request.
type stageTimes struct {
	parse, check, compile, generate time.Duration
}

// design is the front half of the designer's loop, stage by stage as
// partita.Analyze runs it: parse, check, lower, and generate the IMP
// database.
func design(w apps.Workload, tr *tracer, req, parent int) (db *imp.DB, prog *mop.Program, lay *lower.Layout, st stageTimes, err error) {
	var f *cprog.File
	var info *cprog.Info
	st.parse = tr.timed(req, parent, "cprog.parse", func() { f, err = cprog.Parse(w.Source) })
	if err != nil {
		return
	}
	st.check = tr.timed(req, parent, "cprog.check", func() { info, err = cprog.Analyze(f) })
	if err != nil {
		return
	}
	st.compile = tr.timed(req, parent, "lower.compile", func() { prog, lay, err = lower.Compile(info) })
	if err != nil {
		return
	}
	st.generate = tr.timed(req, parent, "imp.generate", func() {
		db, err = imp.Generate(info, w.Root, imp.Config{
			Catalog:   w.Catalog,
			Area:      kernel.DefaultArea(),
			DataCount: w.DataCount,
			CDFG:      cdfg.DefaultOptions(),
		})
	})
	return
}

// exploreStats accumulates the per-layer numbers of recorded requests.
type exploreStats struct {
	parse, check, compile, generate, prof, analysis, sim []float64
	imps, solved, reused, greedySeeds                    int
	search                                               search
}

// runExplore is the explore workload: the designer's loop from source to
// a simulated selection through a 16-point sweep pipeline. The sweep
// runs on the serial solver: at Parallelism 2 some sweeps of this pool
// came back wrong, and parity_test.go reproduces them until the parallel
// search is fixed.
func runExplore(cfg config) (*result, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	res := newResult()
	pool, err := explorePool()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.tr = newTracer()
	}
	setup := func() error {
		_, err := explorePool()
		return err
	}
	var es exploreStats
	st, err := closedLoop(cfg, res, len(pool), time.Second, setup, func(k int, tr *tracer, rec bool) (time.Duration, error) {
		w := pool[k]
		start := time.Now()
		req, root := tr.request()
		db, prog, lay, stages, err := design(w, tr, req, root)
		if err != nil {
			return time.Since(start), fmt.Errorf("%s: %w", w.Name, err)
		}
		var ops int64
		profMs := tr.timed(req, root, "profile.run", func() {
			m := profile.New(prog, lay, kernel.DefaultCost())
			if _, err = m.Run(w.Entry); err == nil {
				ops = m.Stats().Ops
			}
		})
		if err != nil {
			return time.Since(start), fmt.Errorf("%s: profile: %w", w.Name, err)
		}
		var an *selector.Analysis
		anMs := tr.timed(req, root, "selector.analysis", func() { an = selector.NewAnalysis(db) })
		gains := sweepGains(an.MaxGain())
		var pts []selector.Point
		pl := an.NewPipeline(gains, budget.Budget{}, nil)
		sweepMs := tr.timed(req, root, "selector.sweep", func() {
			for {
				pt, ok, perr := pl.Next(context.Background())
				if !ok || perr != nil {
					err = perr
					return
				}
				pts = append(pts, pt)
			}
		})
		if err != nil {
			return time.Since(start), fmt.Errorf("%s: sweep: %w", w.Name, err)
		}
		top := -1
		for j, pt := range pts {
			if pt.Sel.Status == ilp.Optimal && len(pt.Sel.Chosen) > 0 {
				top = j
			}
		}
		var sr sim.SystemResult
		simMs := tr.timed(req, root, "sim.run", func() {
			if top >= 0 {
				sr, err = sim.RunSelection(db, pts[top].Sel.Chosen, 0)
			}
		})
		tr.end(root)
		lat := time.Since(start)
		if err != nil {
			return lat, fmt.Errorf("%s: simulate: %w", w.Name, err)
		}

		if ops <= 0 {
			return lat, fmt.Errorf("%s: the profile run executed nothing", w.Name)
		}
		if top >= 0 && (sr.AcceleratedCycles <= 0 || sr.AcceleratedCycles > sr.SoftwareCycles) {
			return lat, fmt.Errorf("%s: simulated %d accelerated vs %d software cycles", w.Name, sr.AcceleratedCycles, sr.SoftwareCycles)
		}
		if len(pts) != len(gains) {
			return lat, fmt.Errorf("%s: sweep returned %d of %d points", w.Name, len(pts), len(gains))
		}
		for j, pt := range pts {
			key := exploreKey(w.Name, j)
			want, ok := refs[key]
			if !ok {
				return lat, fmt.Errorf("no reference answer for %s; run with -regen", key)
			}
			if _, err := verify(db, gains[j], nil, claimOf(pt.Sel), want); err != nil {
				return lat, fmt.Errorf("%s (%s) point %d: %w", w.Name, key, j, err)
			}
		}
		if !rec {
			return lat, nil
		}
		es.parse = append(es.parse, ms(stages.parse))
		es.check = append(es.check, ms(stages.check))
		es.compile = append(es.compile, ms(stages.compile))
		es.generate = append(es.generate, ms(stages.generate))
		es.prof = append(es.prof, ms(profMs))
		es.analysis = append(es.analysis, ms(anMs))
		es.sim = append(es.sim, ms(simMs))
		es.imps += len(db.IMPs)
		ps := pl.Stats()
		es.solved += ps.Solved
		es.reused += ps.Reused
		es.greedySeeds += ps.GreedySeeds
		es.search.reqs++
		es.search.solveMs = append(es.search.solveMs, ms(sweepMs))
		for _, pt := range pts {
			es.search.count(pt.Sel)
		}
		return lat, nil
	})
	if err != nil {
		return nil, err
	}
	st.report(res)
	es.search.report(res.metrics, 0)
	m := res.metrics
	m["cprog.parse_ms"] = median(es.parse)
	m["cprog.check_ms"] = median(es.check)
	m["lower.compile_ms"] = median(es.compile)
	m["imp.generate_ms"] = median(es.generate)
	m["profile.run_ms"] = median(es.prof)
	m["selector.analysis_ms"] = median(es.analysis)
	m["sim.run_ms"] = median(es.sim)
	if n := float64(es.search.reqs); n > 0 {
		m["imp.imps_per_req"] = float64(es.imps) / n
		m["selector.points_solved_per_req"] = float64(es.solved) / n
		m["selector.reuse_frac"] = float64(es.reused) / float64(es.solved+es.reused)
		m["selector.greedy_seeds_per_req"] = float64(es.greedySeeds) / n
	}
	return res, nil
}

// exploreRefs hands every sweep point of the explore pool to solve.
func exploreRefs(solve refSolver) error {
	pool, err := explorePool()
	if err != nil {
		return err
	}
	for _, w := range pool {
		db, _, _, _, err := design(w, nil, 0, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		an := selector.NewAnalysis(db)
		for j, rg := range sweepGains(an.MaxGain()) {
			if err := solve(exploreKey(w.Name, j), an, rg, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
