// Package partita is a Go reproduction of the ASIP IP-selection flow of
// Choi, Yi, Lee, Park and Kyung, "Exploiting Intellectual Properties in
// ASIP Designs for Embedded DSP Software" (DAC 1999).
//
// Given an embedded DSP program (a small C dialect), an IP library, and
// a required performance gain, the flow selects the optimal set of IP
// accelerators *and* interface methods — jointly — so that every
// execution path meets its constraint at minimum silicon area, while
// exploiting concurrent execution of kernel code ("parallel code") with
// running IPs.
//
// The pipeline mirrors the paper's Partita system:
//
//	design, _ := partita.Analyze(source, "encoder", catalog, partita.Options{})
//	sel, _ := design.Select(requiredGain)
//	res, _ := design.Simulate(sel, 0)
//
// Analyze parses and checks the program, lowers it to the kernel's
// µ-operation (MOP) list, builds the control/data-flow graph, extracts
// the guaranteed parallel code of every s-call candidate (Definitions
// 3-5), and enumerates the implementation-method database (IMPs: IP ×
// interface type × parallel code, with hierarchy flattening). Select
// solves the paper's 0-1 ILP (Problems 1 and 2) exactly with the
// built-in branch-and-bound solver. Simulate validates the chosen
// configuration on a cycle-level kernel+IP model.
package partita

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"partita/internal/budget"
	"partita/internal/cdfg"
	"partita/internal/cinstr"
	"partita/internal/cprog"
	"partita/internal/encode"
	"partita/internal/hwgen"
	"partita/internal/iface"
	"partita/internal/ilp"
	"partita/internal/imp"
	"partita/internal/ip"
	"partita/internal/kernel"
	"partita/internal/lower"
	"partita/internal/mop"
	mopopt "partita/internal/opt"
	"partita/internal/portfolio"
	"partita/internal/profile"
	"partita/internal/sched"
	"partita/internal/selector"
	"partita/internal/sim"
)

// Re-exported building blocks. The aliases give library users a single
// import while the implementation stays in focused internal packages.
type (
	// IP describes one library block (ports, rates, latency, area,
	// functions). An IP with several functions is an M-IP.
	IP = ip.IP
	// Catalog is an IP library.
	Catalog = ip.Catalog
	// InterfaceType is one of the four interface methods (Type0-Type3).
	InterfaceType = iface.Type
	// InterfaceCandidate carries the timing/area breakdown of attaching
	// an IP through one interface type.
	InterfaceCandidate = iface.Candidate
	// Shape describes one accelerated invocation (data volumes, T_SW,
	// parallel-code time).
	Shape = iface.Shape
	// DB is the implementation-method database for one application.
	DB = imp.DB
	// IMP is one implementation method (IP + interface + parallel code).
	IMP = imp.IMP
	// SCall is one s-call candidate.
	SCall = imp.SCall
	// Selection is a solved configuration with the paper's G/A/S/O
	// metrics.
	Selection = selector.Selection
	// SystemResult is the outcome of cycle-level validation.
	SystemResult = sim.SystemResult
	// Stats is an execution profile (block counts, call counts, cycles).
	Stats = profile.Stats
	// SolveStatus reports optimal/feasible/infeasible/unbounded.
	SolveStatus = ilp.Status
	// Budget bounds the work a solve may perform (branch-and-bound
	// nodes, simplex pivots); wall-clock deadlines come from the
	// context passed to the *Ctx entry points. The zero Budget is
	// unlimited.
	Budget = budget.Budget
)

// Interface types (Fig. 3 of the paper).
const (
	Type0 = iface.Type0 // software controller, no buffers
	Type1 = iface.Type1 // software controller, buffered (parallel exec)
	Type2 = iface.Type2 // hardware FSM, no buffers (DMA)
	Type3 = iface.Type3 // hardware FSM, buffered (parallel exec)
)

// Solve statuses.
const (
	Optimal    = ilp.Optimal
	Infeasible = ilp.Infeasible
	// Feasible marks an anytime result: a valid configuration returned
	// after the budget ran out, with Selection.Gap bounding how far it
	// may be from the optimum.
	Feasible = ilp.Feasible
)

// Budget-exhaustion sentinels. Selections returned alongside these are
// still valid (anytime results); match with errors.Is.
var (
	// ErrDeadline reports that the context deadline expired (or the
	// context was cancelled) during a solve.
	ErrDeadline = budget.ErrDeadline
	// ErrNodeLimit reports that the branch-and-bound node budget ran out.
	ErrNodeLimit = budget.ErrNodeLimit
)

// ErrInternal wraps a panic recovered at the public API boundary.
// Library bugs and malformed hand-built inputs surface as ordinary
// errors instead of crashing the embedding process.
var ErrInternal = errors.New("partita: internal error")

// guard converts a panic into an ErrInternal-wrapped error assigned to
// *err. Deferred at every public entry point that runs nontrivial
// machinery over user-supplied structures.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrInternal, r)
	}
}

// NewCatalog builds and validates an IP library.
func NewCatalog(blocks ...*IP) (*Catalog, error) { return ip.NewCatalog(blocks...) }

// Options tunes Analyze.
type Options struct {
	// Optimize runs the MOP-level peephole optimizer (MAC fusion,
	// redundant AGU/immediate elimination, store-to-load forwarding,
	// dead-code removal) on the lowered program before analysis.
	Optimize bool
	// Problem2 removes the paper's Problem-1 restrictions: s-calls to
	// the same function may be implemented differently, and software
	// bodies of s-calls may serve as parallel code of others (with the
	// induced SC-PC conflicts).
	Problem2 bool
	// DataCount overrides the per-function accelerator data volumes
	// (inputs, outputs per invocation); nil uses a loop-bound heuristic.
	DataCount func(fn string) (nIn, nOut int)
	// DefaultTrips is assumed for loops with non-static bounds (default 8).
	DefaultTrips int64
}

// Design is an analyzed application ready for selection.
//
// Concurrency: a Design is immutable after Analyze returns. The solver
// entry points — Select, SelectCtx, SelectCtxObserve, SelectPerPath,
// SelectPerPathCtx, GreedySelect, SelectPortfolio, Reselect, Sweep, and
// SweepCtx — only read the Design and build their working state per
// call, so any number of them
// may run concurrently on the same Design from different goroutines.
// This is the contract the partitad service relies on to share one
// analyzed Design across its whole worker pool. (Profile and Simulate
// construct fresh machines per call and are likewise safe to run
// concurrently.)
//
// Every solver entry point shares one immutable selection analysis
// (the point-independent half of the ILP model: implementation groups,
// areas, per-path gain coefficients), built lazily on first use —
// analyze once, select many.
type Design struct {
	// Root is the function whose s-calls are optimized.
	Root string
	// Info is the semantic analysis result.
	Info *cprog.Info
	// Prog is the lowered µ-operation program.
	Prog *mop.Program
	// Layout is the data-memory map.
	Layout *lower.Layout
	// DB is the generated IMP database.
	DB *DB

	analysisOnce sync.Once
	analysis     *selector.Analysis
}

// selAnalysis returns the Design's shared selection analysis, building
// it on first use. Safe for concurrent callers (sync.Once).
func (d *Design) selAnalysis() *selector.Analysis {
	d.analysisOnce.Do(func() { d.analysis = selector.NewAnalysis(d.DB) })
	return d.analysis
}

// MaxReachableGain is the gain of selecting every implementation
// method, minimized over execution paths — the top of the reachable
// sweep range.
func (d *Design) MaxReachableGain() int64 { return d.selAnalysis().MaxGain() }

// Analyze runs the front half of the flow on mini-C source.
func Analyze(source, root string, catalog *Catalog, opt Options) (d *Design, err error) {
	defer guard(&err)
	f, err := cprog.Parse(source)
	if err != nil {
		return nil, err
	}
	info, err := cprog.Analyze(f)
	if err != nil {
		return nil, err
	}
	prog, lay, err := lower.Compile(info)
	if err != nil {
		return nil, err
	}
	if opt.Optimize {
		mopopt.Optimize(prog)
	}
	copts := cdfg.DefaultOptions()
	if opt.DefaultTrips > 0 {
		copts.DefaultTrips = opt.DefaultTrips
	}
	db, err := imp.Generate(info, root, imp.Config{
		Catalog:   catalog,
		Area:      kernel.DefaultArea(),
		DataCount: opt.DataCount,
		Problem2:  opt.Problem2,
		CDFG:      copts,
	})
	if err != nil {
		return nil, err
	}
	return &Design{Root: root, Info: info, Prog: prog, Layout: lay, DB: db}, nil
}

// Select solves the optimal S-instruction generation problem: minimum
// total area such that every execution path gains at least requiredGain
// cycles.
func (d *Design) Select(requiredGain int64) (*Selection, error) {
	return d.SelectCtx(context.Background(), requiredGain, Budget{})
}

// SelectCtx is Select under a wall-clock deadline (via ctx) and a work
// budget. On exhaustion it degrades gracefully: if the solver holds an
// incumbent the Selection comes back with Status Feasible and a
// non-zero Gap; with no incumbent at all it falls back to the greedy
// baseline and sets Selection.Degraded. Context *cancellation* (as
// opposed to deadline expiry) aborts outright with an error wrapping
// context.Canceled.
func (d *Design) SelectCtx(ctx context.Context, requiredGain int64, bud Budget) (sel *Selection, err error) {
	defer guard(&err)
	return d.selAnalysis().Solve(ctx, selector.Problem{DB: d.DB, Required: requiredGain, Budget: bud})
}

// Incumbent is one anytime progress event of an observed solve: the
// branch-and-bound search installed a configuration better than every
// previous one. Events arrive in strictly decreasing Area order.
type Incumbent = selector.Incumbent

// SelectCtxObserve is SelectCtx with a progress observer: observe is
// invoked synchronously on the solving goroutine for each new incumbent
// of the area-minimization pass (current area, best proven bound,
// optimality gap, nodes explored). It must be fast and must not block;
// nil observe makes this identical to SelectCtx. The partitad service
// uses this hook to stream solve progress to polling clients.
func (d *Design) SelectCtxObserve(ctx context.Context, requiredGain int64, bud Budget, observe func(Incumbent)) (sel *Selection, err error) {
	defer guard(&err)
	return d.selAnalysis().Solve(ctx, selector.Problem{
		DB: d.DB, Required: requiredGain, Budget: bud, OnIncumbent: observe,
	})
}

// SelectPerPath solves with per-execution-path requirements (indexed
// like DB.Paths; entries < 0 fall back to requiredGain).
func (d *Design) SelectPerPath(requiredGain int64, perPath []int64) (*Selection, error) {
	return d.SelectPerPathCtx(context.Background(), requiredGain, perPath, Budget{})
}

// SelectPerPathCtx is SelectPerPath with a deadline and work budget,
// degrading like SelectCtx.
func (d *Design) SelectPerPathCtx(ctx context.Context, requiredGain int64, perPath []int64, bud Budget) (sel *Selection, err error) {
	defer guard(&err)
	return d.selAnalysis().Solve(ctx, selector.Problem{DB: d.DB, Required: requiredGain, PerPath: perPath, Budget: bud})
}

// GreedySelect runs the prior-art baseline (no interface choice, no
// parallel execution, gain/area greedy).
func (d *Design) GreedySelect(requiredGain int64) *Selection {
	return d.selAnalysis().Greedy(selector.Problem{DB: d.DB, Required: requiredGain})
}

// Delta is one batch of interactive edits to a selection problem: IP
// silicon-area replacements, per-execution IMP gain replacements, and
// required-gain changes (uniform or per path). The zero value edits
// nothing. Deltas drive Reselect, the incremental re-solve of an
// interactive design loop.
type Delta = selector.Delta

// PortfolioEngine names one engine of the racing solver portfolio.
type PortfolioEngine = portfolio.Engine

// Portfolio engines. A race also reports the "capacity" engine (see
// SelectPortfolio).
const (
	// EngineGreedy is the gain/area-ratio baseline: microseconds, no
	// proof, no bound.
	EngineGreedy = portfolio.Greedy
	// EngineLPRound named an engine that rounded one LP relaxation.
	//
	// Deprecated: the portfolio no longer runs it (the exact engine's
	// bound stream carries the same bound), so no result reports it.
	EngineLPRound PortfolioEngine = "lpround"
	// EngineExact is the branch and bound — the only engine
	// that proves optimality.
	EngineExact = portfolio.Exact
)

// PortfolioAnswer is one delivered answer of a portfolio race: the
// engine that produced it, the selection, the proven relative area gap
// at delivery time, and the elapsed time since the race started.
type PortfolioAnswer = portfolio.Answer

// PortfolioOptions tunes SelectPortfolio and Reselect.
type PortfolioOptions struct {
	// Gap is the relative area gap at which a bounded candidate becomes
	// the race's first acceptable answer: a candidate with area A is
	// acceptable once the best proven lower bound L satisfies
	// (A-L)/max(1,A) ≤ Gap. 0 accepts only proven results (the settled
	// answer is then the exact solver's, byte for byte).
	Gap float64
	// Budget bounds each engine's work, like SelectCtx.
	Budget Budget
	// PerPath carries per-execution-path requirements (indexed like
	// DB.Paths; entries < 0 fall back to the uniform requirement).
	PerPath []int64
	// Warm is ignored.
	//
	// Deprecated: a race no longer offers a previous selection as a
	// "seed" candidate. On the benchmark's service mix that candidate
	// won no race, and it never changed a settled answer.
	Warm *Selection
	// Observe, when non-nil, streams the exact engine's anytime
	// incumbents under the SelectCtxObserve contract.
	Observe func(Incumbent)
	// OnFirst, when non-nil, is invoked exactly once, synchronously on
	// the calling goroutine, when the first acceptable answer lands. The
	// exact solve continues after it returns, until its proof settles
	// the race or the budget runs out.
	OnFirst func(PortfolioAnswer)
}

// PortfolioResult is the settled outcome of a portfolio solve, with
// per-engine attribution: which engine won the race to the first
// acceptable answer, which produced the settled result, and whether the
// final proof confirmed the fast answer.
type PortfolioResult struct {
	// Sel is the settled selection — the exact engine's result when it
	// finished, otherwise the best bounded candidate.
	Sel *Selection
	// Engine produced Sel.
	Engine PortfolioEngine
	// Gap is the settled relative area gap (0 when proven).
	Gap float64
	// FirstEngine/FirstSel/FirstGap describe the race winner: the first
	// acceptable answer delivered (also passed to OnFirst). When no
	// engine crossed the threshold early, they repeat the settled
	// answer.
	FirstEngine PortfolioEngine
	FirstSel    *Selection
	FirstGap    float64
	// First and Settled are the times from race start to the first
	// acceptable answer and to the settled result.
	First   time.Duration
	Settled time.Duration
	// Confirmed reports that the race settled with a proof agreeing
	// with the first answer — the result a caller already acted on was
	// right.
	Confirmed bool
	// Seeded is always false.
	//
	// Deprecated: no race is given a previous selection (see
	// PortfolioOptions.Warm).
	Seeded bool

	// Chaining state for Reselect: the (possibly Delta-derived)
	// analysis this result was solved over and its requirements.
	an       *selector.Analysis
	required int64
	perPath  []int64
}

func wrapPortfolio(r *portfolio.Result, an *selector.Analysis, p selector.Problem) *PortfolioResult {
	return &PortfolioResult{
		Sel:         r.Sel,
		Engine:      r.Engine,
		Gap:         r.Gap,
		FirstEngine: r.First.Engine,
		FirstSel:    r.First.Sel,
		FirstGap:    r.First.Gap,
		First:       r.First.Elapsed,
		Settled:     r.Settled,
		Confirmed:   r.Confirmed,
		an:          an,
		required:    p.Required,
		perPath:     p.PerPath,
	}
}

// SelectPortfolio races the selection engines over the Design's shared
// analysis, in order on the calling goroutine: the covering-knapsack
// capacity bound and its witness ("capacity"), the greedy baseline,
// then the exact branch and bound. It delivers the first *acceptable*
// answer (feasible, with a proven relative area gap ≤ opt.Gap) through
// opt.OnFirst while the exact search keeps running behind it; the exact
// engine's proof — its optimum or an infeasibility proof — settles the
// race. With Gap 0 the settled result is identical to SelectCtx's.
func (d *Design) SelectPortfolio(ctx context.Context, requiredGain int64, opt PortfolioOptions) (res *PortfolioResult, err error) {
	defer guard(&err)
	an := d.selAnalysis()
	p := selector.Problem{DB: d.DB, Required: requiredGain, PerPath: opt.PerPath, Budget: opt.Budget}
	r, err := portfolio.Run(ctx, an, p, portfolio.Config{
		Gap: opt.Gap, OnIncumbent: opt.Observe, OnFirst: opt.OnFirst,
	})
	if err != nil {
		return nil, err
	}
	return wrapPortfolio(r, an, p), nil
}

// Reselect is the incremental re-solve of an interactive design loop:
// apply delta to the problem prev was solved over (copy-on-write — the
// shared analysis is never mutated and unchanged per-path coefficient
// rows are reused by reference) and race the portfolio on the edited
// problem, in SelectPortfolio's order. Only prev's analysis and
// requirements carry over; opt.PerPath, when set, replaces prev's
// per-path requirements before the delta applies. Every engine solves
// the edited problem from scratch, so correctness never depends on the
// edit being small. A nil prev solves the delta-edited base problem.
// Results chain: each Reselect solves over the previous result's
// derived analysis, so an edit session folds naturally.
func (d *Design) Reselect(ctx context.Context, prev *PortfolioResult, delta Delta, opt PortfolioOptions) (res *PortfolioResult, err error) {
	defer guard(&err)
	an := d.selAnalysis()
	p := selector.Problem{PerPath: opt.PerPath, Budget: opt.Budget}
	if prev != nil {
		if prev.an != nil {
			an = prev.an
		}
		p.Required = prev.required
		if p.PerPath == nil {
			p.PerPath = prev.perPath
		}
	}
	na, err := an.Apply(delta)
	if err != nil {
		return nil, err
	}
	if p, err = na.ApplyProblem(delta, p); err != nil {
		return nil, err
	}
	r, err := portfolio.Run(ctx, na, p, portfolio.Config{
		Gap: opt.Gap, OnIncumbent: opt.Observe, OnFirst: opt.OnFirst,
	})
	if err != nil {
		return nil, err
	}
	return wrapPortfolio(r, na, p), nil
}

// Simulate validates a selection on the cycle-level system model over
// execution path pathIdx of the root function.
func (d *Design) Simulate(sel *Selection, pathIdx int) (res SystemResult, err error) {
	defer guard(&err)
	if sel == nil {
		return SystemResult{}, fmt.Errorf("partita: nil selection")
	}
	return sim.RunSelection(d.DB, sel.Chosen, pathIdx)
}

// Profile executes entry on the kernel model with the program's static
// data and returns the running-frequency profile and the return value.
func (d *Design) Profile(entry string, args ...int64) (st Stats, ret int64, err error) {
	defer guard(&err)
	m := profile.New(d.Prog, d.Layout, kernel.DefaultCost())
	ret, err = m.Run(entry, args...)
	if err != nil {
		return Stats{}, 0, err
	}
	return m.Stats(), ret, nil
}

// InterfaceCandidates enumerates the feasible interface attachments of
// one IP under an invocation shape — the trade-off table of Section 3.
func InterfaceCandidates(block *IP, s Shape) []InterfaceCandidate {
	return iface.Candidates(block, s, kernel.DefaultArea())
}

// More re-exports for the back end of the flow.
type (
	// CInstrResult summarizes C-instruction generation (code-size and
	// fetch savings).
	CInstrResult = cinstr.Result
	// Image is the encoded instruction memory + optimized µ-ROM.
	Image = encode.Image
	// SweepPoint is one point of a design-space sweep.
	SweepPoint = selector.SweepPoint
)

// GenerateCInstructions mines the lowered program for profitable
// C-class instructions (repeated µ-word sequences stored once in µ-ROM),
// weighting fetch savings by the given execution profile (pass the Stats
// from Profile, or a zero Stats for static-only weighting).
func (d *Design) GenerateCInstructions(stats Stats) *CInstrResult {
	return cinstr.Mine(d.Prog, stats.BlockCount, cinstr.Config{})
}

// Encode lays the program out in the instruction space: P-words through
// the deduplicated µ-ROM dictionary, C-instructions as single opcodes,
// and one S-instruction per distinct selected implementation.
func (d *Design) Encode(cres *CInstrResult, sel *Selection) (*Image, error) {
	var cs []*cinstr.CInstr
	if cres != nil {
		cs = cres.Chosen
	}
	var sNames []string
	if sel != nil {
		seen := map[string]bool{}
		for _, m := range sel.Chosen {
			key := m.IP.ID + "/" + m.Cand.Type.String()
			if !seen[key] {
				seen[key] = true
				sNames = append(sNames, key)
			}
		}
	}
	return encode.Build(d.Prog, cs, sNames)
}

// Sweep solves the selection across the reachable gain range and
// returns the area/gain trade-off curve; ParetoFront (selector package)
// filters it to the non-dominated frontier.
func (d *Design) Sweep(points int) ([]SweepPoint, error) {
	return d.SweepCtx(context.Background(), points, Budget{})
}

// SweepCtx is Sweep with a deadline and a per-point work budget.
// Points whose solve exhausted the budget carry Feasible/Degraded
// selections like SelectCtx results.
func (d *Design) SweepCtx(ctx context.Context, points int, bud Budget) (pts []SweepPoint, err error) {
	defer guard(&err)
	return d.selAnalysis().SweepPoints(ctx, points, bud, nil)
}

// SweepCtxObserve is SweepCtx with a progress observer: observe sees
// every incumbent of every point's solve, in point order, under the
// same contract as SelectCtxObserve. The partitad service uses this
// hook to journal incumbent checkpoints during long sweeps.
func (d *Design) SweepCtxObserve(ctx context.Context, points int, bud Budget, observe func(Incumbent)) (pts []SweepPoint, err error) {
	defer guard(&err)
	return d.selAnalysis().SweepPoints(ctx, points, bud, observe)
}

// SweepStats counts how a sweep pipeline disposed of its points: Solved
// ran the exact solver, Reused completed with zero solver work (plateau
// reuse or propagated infeasibility). GreedySeeds is deprecated and
// always reads 0: solved points start cold.
type SweepStats = selector.PipelineStats

// SweepPipelinePoint is one lazily produced point of a SweepPipeline:
// its position in the gains slice, its required gain, its selection,
// and whether it was Reused — completed with zero solver work because
// its answer was proven by an earlier point.
type SweepPipelinePoint = selector.Point

// SweepPipeline is the lazy analyze-once/select-many sweep iterator:
// points are solved on demand over the Design's shared analysis, points
// whose answer is proven by an earlier point (the optimal area is
// non-decreasing in the required gain, so a looser point's selection
// that already meets a tighter requirement is optimal there too)
// complete without any search, and solved points run the same cold
// solve as SelectCtx. Sweep and SweepCtx are eager adapters over this
// iterator; the partitad batch API drives one pipeline per submitted
// program to stream per-point results as they complete. A SweepPipeline
// is not safe for concurrent use; build one per consumer.
type SweepPipeline struct {
	pl *selector.Pipeline
}

// NewSweepPipeline builds a lazy sweep iterator over explicit required
// gains (ascending order maximizes reuse; any order stays correct). bud
// applies per point; observe, when non-nil, receives every incumbent of
// every solved point tagged with its point index.
func (d *Design) NewSweepPipeline(gains []int64, bud Budget, observe func(point int, inc Incumbent)) *SweepPipeline {
	return &SweepPipeline{pl: d.selAnalysis().NewPipeline(gains, bud, observe)}
}

// Next produces the next point, solving only when the answer does not
// already follow from an earlier one. ok is false when the pipeline is
// exhausted. Pass a fresh ctx per call for per-point deadlines; on
// error the returned point's Index and Required are still valid and the
// iterator has advanced, so the caller may keep going.
func (p *SweepPipeline) Next(ctx context.Context) (pt SweepPipelinePoint, ok bool, err error) {
	defer guard(&err)
	return p.pl.Next(ctx)
}

// Len reports the total number of points.
func (p *SweepPipeline) Len() int { return p.pl.Len() }

// Stats reports the dispositions of the points produced so far.
func (p *SweepPipeline) Stats() SweepStats { return p.pl.Stats() }

// ParetoFront filters sweep points to the non-dominated frontier.
func ParetoFront(points []SweepPoint) []SweepPoint { return selector.ParetoFront(points) }

// CanonicalHash returns a stable hex digest identifying an Analyze
// input: the program source, root function, every declarative field of
// every catalog block (in ID order, so map iteration order cannot leak
// in), and the declarative Options fields. Two calls with semantically
// identical inputs always produce the same digest, which is what the
// partitad service uses as its content-addressed cache key.
//
// Options.DataCount is a function and cannot be hashed; only its
// presence is mixed in. Callers whose DataCount (or any other
// out-of-band input) affects results must pass a distinguishing tag in
// extra — the service, for example, tags jobs on bundled workloads with
// the workload name. The extra strings are order-significant.
func CanonicalHash(source, root string, catalog *Catalog, opt Options, extra ...string) string {
	h := sha256.New()
	var buf [8]byte
	ws := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wf := func(v float64) { wi(int64(math.Float64bits(v))) }
	wb := func(v bool) {
		if v {
			wi(1)
		} else {
			wi(0)
		}
	}

	ws("partita-hash-v1")
	ws(source)
	ws(root)
	if catalog == nil {
		wi(-1)
	} else {
		blocks := catalog.All()
		wi(int64(len(blocks)))
		for _, b := range blocks {
			ws(b.ID)
			ws(b.Name)
			funcs := append([]string(nil), b.Funcs...)
			sort.Strings(funcs)
			wi(int64(len(funcs)))
			for _, f := range funcs {
				ws(f)
			}
			wi(int64(b.InPorts))
			wi(int64(b.OutPorts))
			wi(int64(b.InRate))
			wi(int64(b.OutRate))
			wi(int64(b.Latency))
			wb(b.Pipelined)
			wf(b.Area)
			wi(int64(b.Protocol))
			wf(b.PerfFactor)
		}
	}
	wb(opt.Optimize)
	wb(opt.Problem2)
	wi(opt.DefaultTrips)
	wb(opt.DataCount != nil)
	wi(int64(len(extra)))
	for _, e := range extra {
		ws(e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ScheduleEntry is one slot of a post-selection kernel schedule.
type ScheduleEntry = sched.Entry

// Schedule performs the code motion a parallel-code selection implies:
// the PC nodes of every chosen PC-method move to sit immediately after
// their s-call (Definition 5's "arranged right after"), verified against
// the dependence closure. RenderSchedule pretty-prints the result.
func (d *Design) Schedule(sel *Selection, pathIdx int) ([]ScheduleEntry, error) {
	if sel == nil {
		return nil, fmt.Errorf("partita: nil selection")
	}
	return sched.Plan(d.DB, sel.Chosen, pathIdx)
}

// RenderSchedule pretty-prints a schedule with overlap markers.
func RenderSchedule(entries []ScheduleEntry) string { return sched.Render(entries) }

// GenerateRTL emits the Verilog for a selection's hardware: interface
// controller FSMs (types 2/3), protocol transformers, and — when an
// encoded image is supplied — the instruction decode unit.
func (d *Design) GenerateRTL(sel *Selection, im *Image) string {
	var atts []hwgen.Attachment
	if sel != nil {
		for _, m := range sel.Chosen {
			atts = append(atts, hwgen.Attachment{
				IP:    m.IP,
				Type:  m.Cand.Type,
				Shape: iface.Shape{NIn: m.SC.NIn, NOut: m.SC.NOut, TSW: m.SC.TSW},
			})
		}
	}
	return hwgen.GenerateSystem(atts, im)
}
