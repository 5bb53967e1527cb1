package main

import (
	"fmt"
	"time"

	"partita/internal/apps"
	"partita/internal/imp"
	"partita/internal/selector"
)

// tableGens are the paper-calibrated models of Tables 1-3 (GSM encoder,
// GSM decoder, JPEG encoder): 21 published rows in all.
var tableGens = []struct {
	name string
	gen  func() (*imp.DB, []apps.TableRow, error)
}{
	{"T1", apps.GSMEncoderTable},
	{"T2", apps.GSMDecoderTable},
	{"T3", apps.JPEGEncoderTable},
}

// tableInstances builds the three analyses, as partita.Design does, and
// one instance per published row whose oracle is the row's golden
// A/G/S/O columns and implementation picks. analysisMs receives the
// time of each selector.NewAnalysis.
func tableInstances(analysisMs *[]float64) ([]solveInstance, error) {
	var out []solveInstance
	for _, t := range tableGens {
		db, rows, err := t.gen()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		an := selector.NewAnalysis(db)
		*analysisMs = append(*analysisMs, ms(time.Since(start)))
		for _, row := range rows {
			row := row
			out = append(out, solveInstance{
				name:  fmt.Sprintf("%s RG=%d", t.name, row.RG),
				db:    db,
				an:    an,
				rg:    row.RG,
				want:  answer{Status: "optimal", Area: row.WantArea, Gain: row.WantGain},
				check: func(sel *selector.Selection, d derived) error { return checkRow(row, sel, d) },
			})
		}
	}
	return out, nil
}

// checkRow compares the S and O columns and the implementation picks the
// paper's row fixes; area and gain were verified already.
func checkRow(row apps.TableRow, sel *selector.Selection, d derived) error {
	if d.S != row.WantS || d.O != row.WantO {
		return fmt.Errorf("S=%d O=%d, want S=%d O=%d", d.S, d.O, row.WantS, row.WantO)
	}
	got := map[string]string{}
	for _, m := range sel.Chosen {
		got[m.SC.Name()] = impl(m)
	}
	for sc, want := range row.WantImpl {
		if got[sc] != want {
			return fmt.Errorf("%s implemented as %q, want %q", sc, got[sc], want)
		}
	}
	return nil
}

// runTables is the tables workload: the paper's own 21 instances on the
// default serial solver, every LP solved cold.
func runTables(cfg config) (*result, error) {
	res := newResult()
	var analysisMs []float64
	insts, err := tableInstances(&analysisMs)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.tr = newTracer()
	}
	err = runSolves(cfg, res, insts, 500*time.Millisecond, func() error {
		_, err := tableInstances(&analysisMs)
		return err
	})
	res.metrics["selector.analysis_ms"] = median(analysisMs)
	return res, err
}
