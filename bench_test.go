package partita

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1GSMEncoder    — Table 1 rows (RG sweep, GSM encoder)
//	BenchmarkTable2GSMDecoder    — Table 2 rows (GSM decoder)
//	BenchmarkTable3JPEGEncoder   — Table 3 rows (JPEG encoder, hierarchy)
//	BenchmarkFig2ParallelOverlap — Fig. 2 (kernel/IP concurrency)
//	BenchmarkFig8ParallelCode    — Fig. 8 (PC over multiple paths)
//	BenchmarkFig9Problem2        — Fig. 9 (software fir as parallel code)
//	BenchmarkFig10CommonSCall    — Fig. 10 (common s-call across paths)
//	BenchmarkAblation*           — A1 greedy-vs-ILP, A2 PC on/off,
//	                               A3 interface-aware vs type-0-only
//	BenchmarkEndToEndGSM         — full pipeline on the live workload
//
// plus micro-benchmarks of the substrates (simplex, branch and bound,
// the compiler front-end, the MOP interpreter, µ-word packing, CDFG
// parallel-code extraction).
//
// Benchmarks report custom metrics: reproduced-row counts, areas, and
// the greedy/ILP area ratio — the numbers whose *shape* must match the
// publication.

import (
	"math/rand"
	"testing"

	"partita/internal/apps"
	"partita/internal/cdfg"
	"partita/internal/cprog"
	"partita/internal/iface"
	"partita/internal/ilp"
	"partita/internal/imp"
	"partita/internal/ip"
	"partita/internal/kernel"
	"partita/internal/lower"
	"partita/internal/mop"
	"partita/internal/opt"
	"partita/internal/profile"
	"partita/internal/selector"
	"partita/internal/sim"
)

// benchTable sweeps every published RG of one table and reports how many
// rows reproduce the expected area and gain.
func benchTable(b *testing.B, gen func() (*imp.DB, []apps.TableRow, error)) {
	db, rows, err := gen()
	if err != nil {
		b.Fatal(err)
	}
	var okArea, okGain int
	for i := 0; i < b.N; i++ {
		okArea, okGain = 0, 0
		for _, row := range rows {
			sel, err := selector.Solve(selector.Problem{DB: db, Required: row.RG})
			if err != nil {
				b.Fatal(err)
			}
			if sel.Status != ilp.Optimal {
				continue
			}
			if diff := sel.Area - row.WantArea; diff < 1e-6 && diff > -1e-6 {
				okArea++
			}
			if sel.Gain == row.WantGain {
				okGain++
			}
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
	b.ReportMetric(float64(okArea), "rows_area_ok")
	b.ReportMetric(float64(okGain), "rows_gain_ok")
}

func BenchmarkTable1GSMEncoder(b *testing.B)  { benchTable(b, apps.GSMEncoderTable) }
func BenchmarkTable2GSMDecoder(b *testing.B)  { benchTable(b, apps.GSMDecoderTable) }
func BenchmarkTable3JPEGEncoder(b *testing.B) { benchTable(b, apps.JPEGEncoderTable) }

// BenchmarkFig2ParallelOverlap simulates the buffered-vs-unbuffered
// schedules of Fig. 2 and reports the overlap fraction the buffered
// interface achieves.
func BenchmarkFig2ParallelOverlap(b *testing.B) {
	blk := &ip.IP{ID: "FIR", Name: "FIR", Funcs: []string{"fir"},
		InPorts: 2, OutPorts: 2, InRate: 4, OutRate: 4,
		Latency: 16, Pipelined: true, Area: 5}
	s := iface.Shape{NIn: 64, NOut: 64, TSW: 4000, TC: 150}
	var serial, overlapped sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		serial, err = sim.RunSCall(sim.Config{IP: blk, Type: iface.Type2, Shape: s})
		if err != nil {
			b.Fatal(err)
		}
		overlapped, err = sim.RunSCall(sim.Config{IP: blk, Type: iface.Type3, Shape: s})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(serial.Cycles), "serial_cycles")
	b.ReportMetric(float64(overlapped.Cycles), "overlapped_cycles")
	b.ReportMetric(float64(overlapped.Overlap), "overlap_cycles")
}

const fig8Src = `
xmem int xin[16];
ymem int h[8];
xmem int yout[16];
int u; int v;
int fir(xmem int a[], ymem int c[], xmem int o[]) {
	int i; int acc;
	acc = 0;
	for (i = 0; i < 8; i = i + 1) { acc = acc + a[i] * c[i]; o[i] = acc; }
	return acc;
}
int top(int m1, int m2) {
	int r;
	r = fir(xin, h, yout);
	u = v * 3 + 7;
	if (m1 > 0) {
		if (m2 > 0) { u = u + 1; } else { u = u * u + v; }
	} else {
		u = u * u * u + v * v + 5;
	}
	return r + u;
}
`

// BenchmarkFig8ParallelCode measures parallel-code extraction over the
// multi-path structure of Fig. 8.
func BenchmarkFig8ParallelCode(b *testing.B) {
	f, err := cprog.Parse(fig8Src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := cprog.Analyze(f)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cdfg.Build(info, "top", cdfg.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var res cdfg.PCResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = cdfg.ParallelCode(g, g.Calls[0], cdfg.PCOptions{})
	}
	b.ReportMetric(float64(res.Cost), "pc_cycles")
	b.ReportMetric(float64(len(res.PerPath)), "paths")
}

// BenchmarkFig9Problem2 solves the Fig. 9 instance under both problem
// formulations; Problem 1 must be infeasible where Problem 2 succeeds.
func BenchmarkFig9Problem2(b *testing.B) {
	p1, p2, rg, err := apps.Fig9Problem()
	if err != nil {
		b.Fatal(err)
	}
	var s1, s2 *selector.Selection
	for i := 0; i < b.N; i++ {
		s1, err = selector.Solve(selector.Problem{DB: p1, Required: rg})
		if err != nil {
			b.Fatal(err)
		}
		s2, err = selector.Solve(selector.Problem{DB: p2, Required: rg})
		if err != nil {
			b.Fatal(err)
		}
	}
	p1feasible := 0.0
	if s1.Status == ilp.Optimal {
		p1feasible = 1
	}
	b.ReportMetric(p1feasible, "p1_feasible")
	b.ReportMetric(float64(s2.Gain), "p2_gain")
}

// BenchmarkFig10CommonSCall solves the Fig. 10 two-path instance.
func BenchmarkFig10CommonSCall(b *testing.B) {
	db, perPath, err := apps.Fig10Problem()
	if err != nil {
		b.Fatal(err)
	}
	p1db := db.Filter(func(m *imp.IMP) bool { return len(m.PCSCalls) == 0 })
	var s2 *selector.Selection
	for i := 0; i < b.N; i++ {
		s1, err := selector.Solve(selector.Problem{DB: p1db, PerPath: perPath})
		if err != nil {
			b.Fatal(err)
		}
		if s1.Status == ilp.Optimal {
			b.Fatal("Problem 1 unexpectedly feasible")
		}
		s2, err = selector.Solve(selector.Problem{DB: db, PerPath: perPath})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s2.PathGains[0]), "p1_gain")
	b.ReportMetric(float64(s2.PathGains[1]), "p2_gain")
}

// BenchmarkAblationGreedyVsILP compares the exact ILP with the greedy
// prior-art baseline over the Table-1 sweep (ablation A1).
func BenchmarkAblationGreedyVsILP(b *testing.B) {
	db, rows, err := apps.GSMEncoderTable()
	if err != nil {
		b.Fatal(err)
	}
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 1
		for _, row := range rows {
			opt, err := selector.Solve(selector.Problem{DB: db, Required: row.RG})
			if err != nil {
				b.Fatal(err)
			}
			grd := selector.GreedyBaseline(selector.Problem{DB: db, Required: row.RG})
			if opt.Status != ilp.Optimal || grd.Status != ilp.Optimal {
				continue
			}
			if r := grd.Area / opt.Area; r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "worst_greedy_over_ilp")
}

// BenchmarkAblationParallelCode removes parallel-code methods (A2).
func BenchmarkAblationParallelCode(b *testing.B) {
	db, rows, err := apps.GSMEncoderTable()
	if err != nil {
		b.Fatal(err)
	}
	noPC := db.Filter(func(m *imp.IMP) bool { return !m.UsesPC })
	rg := rows[len(rows)-1].RG // the hardest row needs the PC method
	var with, without *selector.Selection
	for i := 0; i < b.N; i++ {
		with, err = selector.Solve(selector.Problem{DB: db, Required: rg})
		if err != nil {
			b.Fatal(err)
		}
		without, err = selector.Solve(selector.Problem{DB: noPC, Required: rg})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(with.Area, "area_with_pc")
	if without.Status == ilp.Optimal {
		b.ReportMetric(without.Area, "area_without_pc")
	} else {
		b.ReportMetric(-1, "area_without_pc")
	}
}

// BenchmarkAblationInterfaceAware restricts the database to type-0
// interfaces (A3): joint IP+interface selection must dominate.
func BenchmarkAblationInterfaceAware(b *testing.B) {
	db, rows, err := apps.GSMEncoderTable()
	if err != nil {
		b.Fatal(err)
	}
	onlyT0 := db.Filter(func(m *imp.IMP) bool { return m.Cand.Type == iface.Type0 })
	var feasibleAll, feasibleT0 int
	for i := 0; i < b.N; i++ {
		feasibleAll, feasibleT0 = 0, 0
		for _, row := range rows {
			a, err := selector.Solve(selector.Problem{DB: db, Required: row.RG})
			if err != nil {
				b.Fatal(err)
			}
			c, err := selector.Solve(selector.Problem{DB: onlyT0, Required: row.RG})
			if err != nil {
				b.Fatal(err)
			}
			if a.Status == ilp.Optimal {
				feasibleAll++
			}
			if c.Status == ilp.Optimal {
				feasibleT0++
			}
		}
	}
	b.ReportMetric(float64(feasibleAll), "feasible_all_ifaces")
	b.ReportMetric(float64(feasibleT0), "feasible_type0_only")
}

// BenchmarkEndToEndGSM runs the complete pipeline — parse, analyze,
// lower, IMP generation, selection, simulation — on the live GSM encoder
// workload.
func BenchmarkEndToEndGSM(b *testing.B) {
	w, err := apps.GSMEncoderWorkload()
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		built, err := w.Build(false)
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		best := map[string]int64{}
		for _, m := range built.DB.IMPs {
			if m.TotalGain > best[m.SC.Name()] {
				best[m.SC.Name()] = m.TotalGain
			}
		}
		for _, g := range best {
			total += g
		}
		sel, err := selector.Solve(selector.Problem{DB: built.DB, Required: total / 2})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunSelection(built.DB, sel.Chosen, 0)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Speedup()
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkOptimizer measures the MOP peephole optimizer on the GSM
// encoder and reports the cycle reduction it achieves.
func BenchmarkOptimizer(b *testing.B) {
	w, err := apps.GSMEncoderWorkload()
	if err != nil {
		b.Fatal(err)
	}
	f, _ := cprog.Parse(w.Source)
	info, _ := cprog.Analyze(f)
	var reduction float64
	for i := 0; i < b.N; i++ {
		prog, lay, err := lower.Compile(info)
		if err != nil {
			b.Fatal(err)
		}
		m1 := profile.New(prog, lay, kernel.DefaultCost())
		if _, err := m1.Run("main"); err != nil {
			b.Fatal(err)
		}
		before := m1.Stats().Cycles
		opt.Optimize(prog)
		m2 := profile.New(prog, lay, kernel.DefaultCost())
		if _, err := m2.Run("main"); err != nil {
			b.Fatal(err)
		}
		after := m2.Stats().Cycles
		reduction = 100 * float64(before-after) / float64(before)
	}
	b.ReportMetric(reduction, "cycle_reduction_%")
}

// ---- substrate micro-benchmarks ----

func BenchmarkSimplexLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ilp.NewModel()
		rng := rand.New(rand.NewSource(1))
		n := 20
		vars := make([]ilp.VarID, n)
		for j := 0; j < n; j++ {
			vars[j] = m.AddVar("x", 0, 100, -rng.Float64())
		}
		for r := 0; r < 10; r++ {
			var terms []ilp.Term
			for j := 0; j < n; j++ {
				terms = append(terms, ilp.Term{Var: vars[j], Coef: rng.Float64()})
			}
			m.AddConstraint("c", terms, ilp.LE, 50)
		}
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchAndBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ilp.NewModel()
		rng := rand.New(rand.NewSource(7))
		n := 16
		var terms []ilp.Term
		for j := 0; j < n; j++ {
			v := m.AddBinary("x", -float64(1+rng.Intn(40)))
			terms = append(terms, ilp.Term{Var: v, Coef: float64(1 + rng.Intn(20))})
		}
		m.AddConstraint("cap", terms, ilp.LE, 60)
		sol, err := m.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != ilp.Optimal {
			b.Fatal(sol.Status)
		}
	}
}

func BenchmarkCompileFrontend(b *testing.B) {
	w, err := apps.GSMEncoderWorkload()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := cprog.Parse(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		info, err := cprog.Analyze(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := lower.Compile(info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreter(b *testing.B) {
	w, err := apps.GSMEncoderWorkload()
	if err != nil {
		b.Fatal(err)
	}
	f, _ := cprog.Parse(w.Source)
	info, _ := cprog.Analyze(f)
	prog, lay, err := lower.Compile(info)
	if err != nil {
		b.Fatal(err)
	}
	m := profile.New(prog, lay, kernel.DefaultCost())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Stats().Ops), "mops_per_run")
}

func BenchmarkPackBlock(b *testing.B) {
	ops := make([]mop.MOP, 0, 64)
	for i := 0; i < 16; i++ {
		ops = append(ops,
			mop.MOP{Op: mop.LDX, Dst: mop.GPR(i % 8), SrcA: mop.AX(0), Imm: 1},
			mop.MOP{Op: mop.LDY, Dst: mop.GPR((i + 1) % 8), SrcA: mop.AY(0), Imm: 1},
			mop.MOP{Op: mop.MAC, Dst: mop.RegAcc, SrcA: mop.GPR(i % 8), SrcB: mop.GPR((i + 1) % 8)},
			mop.MOP{Op: mop.AGUX, Dst: mop.AX(1), Imm: 1},
		)
	}
	b.ResetTimer()
	var words int
	for i := 0; i < b.N; i++ {
		words = len(mop.PackBlock(ops))
	}
	b.ReportMetric(float64(words), "words")
}

func BenchmarkIMPGeneration(b *testing.B) {
	w, err := apps.GSMEncoderWorkload()
	if err != nil {
		b.Fatal(err)
	}
	f, _ := cprog.Parse(w.Source)
	info, _ := cprog.Analyze(f)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		db, err := imp.Generate(info, w.Root, imp.Config{
			Catalog:   w.Catalog,
			Area:      kernel.DefaultArea(),
			DataCount: w.DataCount,
			CDFG:      cdfg.DefaultOptions(),
		})
		if err != nil {
			b.Fatal(err)
		}
		n = len(db.IMPs)
	}
	b.ReportMetric(float64(n), "imps")
}
