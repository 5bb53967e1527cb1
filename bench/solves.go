package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"partita/internal/ilp"
	"partita/internal/imp"
	"partita/internal/selector"
)

// setupRuns is how many times a workload sets up again during its
// window, at even intervals; setup_s is the median at reference speed.
const setupRuns = 24

// status is a selection's outcome as the oracle compares it.
func status(sel *selector.Selection) string {
	if sel.Degraded != "" {
		return "degraded"
	}
	return sel.Status.String()
}

func claimOf(sel *selector.Selection) claim {
	return claim{Status: status(sel), Chosen: sel.Chosen, Area: sel.Area, Gain: sel.Gain}
}

// solveInstance is one selection problem of the tables and scaled
// workloads: an analysis built at set-up, a required gain, and the
// answer the oracle expects.
type solveInstance struct {
	name string
	db   *imp.DB
	an   *selector.Analysis
	rg   int64
	want answer
	// check adds workload-specific checks of a verified answer.
	check func(sel *selector.Selection, d derived) error
}

// search accumulates the ILP counters of recorded requests. The serial
// solver is deterministic, so every instance must report the same
// counters each time it is solved; their sum over all instances is a
// full pass's, which may back a count-based claim.
type search struct {
	reqs    int
	nodes   int64
	stats   ilp.SearchStats
	solveMs []float64        // per Solve call, or per sweep on explore
	perInst map[int][3]int64 // nodes, cold LPs, pivots
}

// count adds one selection's search counters.
func (s *search) count(sel *selector.Selection) {
	s.nodes += int64(sel.Nodes)
	s.stats.Add(sel.Search)
}

// repeatable records instance inst's counters and reports on standard
// error if they differ from an earlier solve of the same instance.
func (s *search) repeatable(inst int, sel *selector.Selection) {
	c := [3]int64{int64(sel.Nodes), sel.Search.ColdLPs, sel.Search.Pivots()}
	if prev, ok := s.perInst[inst]; ok && prev != c {
		fmt.Fprintf(os.Stderr, "bench: instance %d counters moved from %v to %v\n", inst, prev, c)
	}
	s.perInst[inst] = c
}

// report fills the ilp.* and selector.solve_ms_p50 metrics; passOf is
// the number of instances in a full pass (0 when passes do not apply).
// The per-pass counters read 0 until every instance has been solved.
func (s *search) report(m map[string]float64, passOf int) {
	if passOf > 0 {
		m["ilp.nodes_per_pass"], m["ilp.cold_lps_per_pass"], m["ilp.pivots_per_pass"] = 0, 0, 0
	}
	if s.reqs == 0 {
		return
	}
	n := float64(s.reqs)
	m["ilp.nodes_per_req"] = float64(s.nodes) / n
	m["ilp.cold_lps_per_req"] = float64(s.stats.ColdLPs) / n
	m["ilp.warm_lps_per_req"] = float64(s.stats.WarmLPs) / n
	if s.nodes > 0 {
		m["ilp.pivots_per_node"] = float64(s.stats.Pivots()) / float64(s.nodes)
	}
	m["selector.solve_ms_p50"] = median(s.solveMs)
	if passOf > 0 && len(s.perInst) == passOf {
		var pass [3]int64
		for _, c := range s.perInst {
			for k := range pass {
				pass[k] += c[k]
			}
		}
		m["ilp.nodes_per_pass"] = float64(pass[0])
		m["ilp.cold_lps_per_pass"] = float64(pass[1])
		m["ilp.pivots_per_pass"] = float64(pass[2])
		fmt.Fprintf(os.Stderr, "bench: per full pass of %d instances: %d nodes, %d cold LPs, %d pivots\n",
			passOf, pass[0], pass[1], pass[2])
	}
}

// rootLPMs times one LP relaxation (Analysis.LPRound) per instance and
// returns the median in milliseconds.
func rootLPMs(insts []solveInstance) float64 {
	var out []float64
	for _, in := range insts {
		start := time.Now()
		_, _, _ = in.an.LPRound(context.Background(), selector.Problem{Required: in.rg}, nil) // only the time matters
		out = append(out, ms(time.Since(start)))
	}
	return median(out)
}

// runSolves is the closed loop of the tables and scaled workloads: one
// client on the serial solver, each request one Analysis.Solve on the
// next instance of a seeded pass over insts. setup builds the instances
// again and drops them.
func runSolves(cfg config, res *result, insts []solveInstance, warm time.Duration, setup func() error) error {
	res.metrics["ilp.root_lp_ms"] = rootLPMs(insts)
	s := &search{perInst: map[int][3]int64{}}
	st, err := closedLoop(cfg, res, len(insts), warm, setup, func(k int, tr *tracer, rec bool) (time.Duration, error) {
		in := insts[k]
		req, root := tr.request()
		var sel *selector.Selection
		var err error
		d := tr.timed(req, root, "selector.solve", func() {
			sel, err = in.an.Solve(context.Background(), selector.Problem{Required: in.rg})
		})
		tr.end(root)
		if err != nil {
			return d, fmt.Errorf("%s: %w", in.name, err)
		}
		if rec {
			s.reqs++
			s.count(sel)
			s.solveMs = append(s.solveMs, ms(d))
			s.repeatable(k, sel)
		}
		dv, err := verify(in.db, in.rg, nil, claimOf(sel), in.want)
		if err == nil && in.check != nil {
			err = in.check(sel, dv)
		}
		if err != nil {
			return d, fmt.Errorf("%s: %w", in.name, err)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	st.report(res)
	s.report(res.metrics, len(insts))
	return nil
}
