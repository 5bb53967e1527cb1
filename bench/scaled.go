package main

import (
	"fmt"
	"time"

	"partita/internal/selector"
)

// The scaled pool: eight frozen synthetic models, 1.5-2x the GSM
// model, each solved at four shares of its reachable gain. The pool is
// fixed so its reference answers can be frozen; the run's seed picks
// the order the instances are visited in.
const scaledModels = 8

var scaledPcts = []int64{20, 40, 60, 80}

// scaledShape is model k's size: 20-26 s-calls over 10-13 shared IPs.
func scaledShape(k int) (seed int64, nSC, nIP int) {
	return int64(1000 + k), 20 + k%7, 10 + k%4
}

func scaledKey(k int, pct int64) string { return fmt.Sprintf("scaled/m%d/%d", k, pct) }

// scaledInstances builds the pool's models and analyses.
func scaledInstances(refs map[string]answer, analysisMs *[]float64) ([]solveInstance, error) {
	var out []solveInstance
	for k := 0; k < scaledModels; k++ {
		db, err := scaledModel(scaledShape(k))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		an := selector.NewAnalysis(db)
		*analysisMs = append(*analysisMs, ms(time.Since(start)))
		for _, pct := range scaledPcts {
			key := scaledKey(k, pct)
			want, ok := refs[key]
			if !ok {
				return nil, fmt.Errorf("no reference answer for %s; run with -regen", key)
			}
			out = append(out, solveInstance{name: key, db: db, an: an, rg: an.MaxGain() * pct / 100, want: want})
		}
	}
	return out, nil
}

// scaledRefs hands every scaled instance to solve.
func scaledRefs(solve refSolver) error {
	for k := 0; k < scaledModels; k++ {
		db, err := scaledModel(scaledShape(k))
		if err != nil {
			return err
		}
		an := selector.NewAnalysis(db)
		for _, pct := range scaledPcts {
			if err := solve(scaledKey(k, pct), an, an.MaxGain()*pct/100, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// runScaled is the scaled workload: larger seeded models on the default
// serial solver, where LP cost per node and tree size dominate.
func runScaled(cfg config) (*result, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	res := newResult()
	var analysisMs []float64
	insts, err := scaledInstances(refs, &analysisMs)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.tr = newTracer()
	}
	err = runSolves(cfg, res, insts, time.Second, func() error {
		_, err := scaledInstances(refs, &analysisMs)
		return err
	})
	res.metrics["selector.analysis_ms"] = median(analysisMs)
	return res, err
}
