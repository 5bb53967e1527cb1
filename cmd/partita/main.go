// Command partita runs the full IP/interface selection flow on a mini-C
// program: compile → profile → IMP database → ILP selection → report,
// optionally validating the chosen configuration on the cycle-level
// system simulator.
//
// Usage:
//
//	partita -src app.c -root encoder -rg 50000 [-catalog lib.json]
//	        [-problem2] [-simulate] [-greedy] [-entry main]
//	        [-timeout 30s] [-max-nodes 100000] [-json]
//
// -timeout and -max-nodes bound the exact solver; when a budget runs
// out the report carries the best configuration found so far (status
// "feasible", with its optimality gap) or the greedy fallback (status
// "degraded") instead of hanging.
//
// The exact solver is a serial best-first branch and bound with a
// reproducible node order; see docs/PERFORMANCE.md.
//
// -portfolio races the greedy baseline, LP-relaxation + rounding, and
// the exact solver; the report shows which engine delivered the first
// acceptable answer (within -portfolio-gap of the proven bound) and
// which settled the result. With -portfolio-gap 0 the settled answer is
// the exact optimum, byte for byte.
//
// -json replaces the tables with one JSON document using the same
// result schema as the partitad service, so CLI and service answers
// are directly comparable.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run
// (the CPU profile covers compile through report; the heap profile is
// taken at exit after a GC). `make profile-ilp` wraps them with a
// solver-heavy sweep so an ILP perf regression can be pinned to a
// function without ad-hoc patching. Profiles are only written on a
// successful exit.
//
// Without -src it runs the bundled GSM-style encoder demo. The catalog
// file is a JSON array of IP descriptors; without -catalog the demo
// library is used.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"partita/internal/apps"
	"partita/internal/ilp"
	"partita/internal/ip"
	"partita/internal/report"
	"partita/internal/service"

	"partita"
)

// jsonOutput is the -json document: the analysis summary plus one
// solved point per gain target, in the partitad wire schema.
type jsonOutput struct {
	Entry      string                 `json:"entry"`
	Cycles     int64                  `json:"cycles"`
	Ops        int64                  `json:"ops"`
	Analyze    *service.AnalyzeResult `json:"analyze"`
	Selections []jsonPoint            `json:"selections"`
}

type jsonPoint struct {
	service.SweepPointResult
	Greedy     *service.SelectionResult `json:"greedy,omitempty"`
	Simulation *jsonSim                 `json:"simulation,omitempty"`
}

type jsonSim struct {
	SoftwareCycles    int64   `json:"softwareCycles"`
	AcceleratedCycles int64   `json:"acceleratedCycles"`
	Speedup           float64 `json:"speedup"`
}

func main() {
	src := flag.String("src", "", "mini-C source file (default: bundled GSM encoder demo)")
	root := flag.String("root", "", "function whose s-calls are optimized")
	entry := flag.String("entry", "main", "entry function for profiling")
	rg := flag.Int64("rg", 0, "required performance gain (cycles); 0 = sweep 10..90% of reachable")
	catalogPath := flag.String("catalog", "", "JSON IP catalog file")
	problem2 := flag.Bool("problem2", false, "enable Problem-2 generality (per-site methods, software-PC)")
	simulate := flag.Bool("simulate", false, "validate the selection on the cycle-level simulator")
	greedy := flag.Bool("greedy", false, "also run the greedy prior-art baseline")
	schedule := flag.Bool("schedule", false, "print the post-selection kernel schedule (parallel-code motion)")
	rtl := flag.String("rtl", "", "write generated Verilog (interfaces + decoder) to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per selection solve (0 = unlimited)")
	maxNodes := flag.Int("max-nodes", 0, "branch-and-bound node budget per solve (0 = unlimited)")
	usePortfolio := flag.Bool("portfolio", false, "race the capacity bound, greedy, LP-rounding, and the exact solver; report per-engine attribution")
	portfolioGap := flag.Float64("portfolio-gap", 0, "relative area gap at which a portfolio candidate is acceptable (0 = proven only)")
	jsonOut := flag.Bool("json", false, "emit one JSON document in the partitad service schema instead of tables")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(fmt.Errorf("memprofile: %w", err))
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fatal(fmt.Errorf("memprofile: %w", err))
			}
		}()
	}

	bud := partita.Budget{MaxNodes: *maxNodes}
	solveCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.Background(), func() {}
	}

	source, rootFn, cat, dataCount, err := loadInputs(*src, *root, *catalogPath)
	if err != nil {
		fatal(err)
	}

	design, err := partita.Analyze(source, rootFn, cat, partita.Options{
		Problem2:  *problem2,
		DataCount: dataCount,
	})
	if err != nil {
		fatal(err)
	}

	stats, ret, err := design.Profile(*entry)
	if err != nil {
		fatal(fmt.Errorf("profiling failed: %w", err))
	}
	out := &jsonOutput{
		Entry:   *entry,
		Cycles:  stats.Cycles,
		Ops:     stats.Ops,
		Analyze: service.NewAnalyzeResult(design),
	}
	if !*jsonOut {
		fmt.Printf("profiled %s(): returned %d after %d cycles, %d MOPs\n",
			*entry, ret, stats.Cycles, stats.Ops)
		fmt.Printf("s-call candidates: %d, implementation methods: %d, execution paths: %d\n\n",
			len(design.DB.SCalls), len(design.DB.IMPs), len(design.DB.Paths))

		scT := report.New("s-call", "function", "sites", "freq", "T_SW", "PC (P1)")
		for _, sc := range design.DB.SCalls {
			scT.Row(sc.Name(), sc.Func, len(sc.Sites), sc.TotalFreq, sc.TSW, sc.PC1.Cost)
		}
		scT.Fprint(os.Stdout)
		fmt.Println()
	}

	targets := []int64{*rg}
	if *rg == 0 {
		var total int64
		best := map[string]int64{}
		for _, m := range design.DB.IMPs {
			if m.TotalGain > best[m.SC.Name()] {
				best[m.SC.Name()] = m.TotalGain
			}
		}
		for _, g := range best {
			total += g
		}
		targets = []int64{total / 10, total * 3 / 10, total / 2, total * 7 / 10, total * 9 / 10}
	}

	selT := report.New("RG", "status", "G", "A", "S", "O", "selected")
	for _, target := range targets {
		ctx, cancel := solveCtx()
		var sel *partita.Selection
		var pres *partita.PortfolioResult
		if *usePortfolio {
			pres, err = design.SelectPortfolio(ctx, target, partita.PortfolioOptions{
				Gap: *portfolioGap, Budget: bud,
			})
			if err == nil {
				sel = pres.Sel
			}
		} else {
			sel, err = design.SelectCtx(ctx, target, bud)
		}
		cancel()
		if err != nil {
			fatal(err)
		}
		point := jsonPoint{SweepPointResult: service.SweepPointResult{
			RequiredGain: target,
			Selection:    service.NewSelectionResult(sel),
		}}
		if pres != nil {
			point.Selection = service.NewPortfolioSelectionResult(pres)
			if !*jsonOut {
				confirmed := ""
				if pres.Confirmed {
					confirmed = ", confirmed"
				}
				fmt.Printf("RG=%d portfolio: first answer from %s (gap %.1f%%) in %s; settled by %s in %s%s\n",
					target, pres.FirstEngine, pres.FirstGap*100, pres.First.Round(time.Microsecond),
					pres.Engine, pres.Settled.Round(time.Microsecond), confirmed)
			}
		}
		if *greedy {
			point.Greedy = service.NewSelectionResult(design.GreedySelect(target))
		}
		if sel.Status != ilp.Optimal && sel.Status != ilp.Feasible {
			out.Selections = append(out.Selections, point)
			selT.Row(target, sel.Status.String(), "-", "-", "-", "-", "")
			continue
		}
		var ids string
		for i, m := range sel.Chosen {
			if i > 0 {
				ids += " "
			}
			ids += m.ID
		}
		status := "optimal"
		switch {
		case sel.Degraded != "":
			status = "degraded"
		case sel.Status == ilp.Feasible:
			status = fmt.Sprintf("feasible(gap %.1f%%)", sel.Gap*100)
		}
		selT.Row(target, status, sel.Gain, sel.Area, sel.SInstructions, sel.SCallsImplemented, ids)

		if *greedy && !*jsonOut {
			g := design.GreedySelect(target)
			if g.Status == ilp.Optimal {
				selT.Row(target, "greedy", g.Gain, g.Area, g.SInstructions, g.SCallsImplemented, "")
			} else {
				selT.Row(target, "greedy:"+g.Status.String(), "-", "-", "-", "-", "")
			}
		}
		if *simulate {
			res, err := design.Simulate(sel, 0)
			if err != nil {
				fatal(err)
			}
			point.Simulation = &jsonSim{
				SoftwareCycles:    res.SoftwareCycles,
				AcceleratedCycles: res.AcceleratedCycles,
				Speedup:           res.Speedup(),
			}
			if !*jsonOut {
				fmt.Printf("RG=%d simulation: software %d → accelerated %d cycles (speedup %.2fx)\n",
					target, res.SoftwareCycles, res.AcceleratedCycles, res.Speedup())
			}
		}
		if *schedule && !*jsonOut {
			entries, err := design.Schedule(sel, 0)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("-- schedule at RG=%d --\n%s", target, partita.RenderSchedule(entries))
		}
		if *rtl != "" {
			cres := design.GenerateCInstructions(stats)
			im, err := design.Encode(cres, sel)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*rtl, []byte(design.GenerateRTL(sel, im)), 0o644); err != nil {
				fatal(err)
			}
			if !*jsonOut {
				fmt.Printf("wrote RTL for RG=%d to %s\n", target, *rtl)
			}
			*rtl = "" // only for the first target
		}
		out.Selections = append(out.Selections, point)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	selT.Fprint(os.Stdout)
}

func loadInputs(srcPath, root, catalogPath string) (string, string, *partita.Catalog, func(string) (int, int), error) {
	if srcPath == "" {
		w, err := apps.GSMEncoderWorkload()
		if err != nil {
			return "", "", nil, nil, err
		}
		if root == "" {
			root = w.Root
		}
		return w.Source, root, w.Catalog, w.DataCount, nil
	}
	data, err := os.ReadFile(srcPath)
	if err != nil {
		return "", "", nil, nil, err
	}
	if root == "" {
		return "", "", nil, nil, fmt.Errorf("-root is required with -src")
	}
	var cat *partita.Catalog
	if catalogPath == "" {
		w, err := apps.GSMEncoderWorkload()
		if err != nil {
			return "", "", nil, nil, err
		}
		cat = w.Catalog
	} else {
		raw, err := os.ReadFile(catalogPath)
		if err != nil {
			return "", "", nil, nil, err
		}
		var blocks []*ip.IP
		if err := json.Unmarshal(raw, &blocks); err != nil {
			return "", "", nil, nil, fmt.Errorf("catalog %s: %w", catalogPath, err)
		}
		cat, err = partita.NewCatalog(blocks...)
		if err != nil {
			return "", "", nil, nil, err
		}
	}
	return string(data), root, cat, nil, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partita:", err)
	os.Exit(1)
}
