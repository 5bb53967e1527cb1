package service

import (
	"math"

	"partita"
	"partita/internal/ilp"
	"partita/internal/selector"
)

// SelectionResult is the wire form of a solved selection. It is the one
// schema shared by the partitad job API and the partita CLI's -json
// mode, so results are comparable byte-for-byte across both entry
// points.
type SelectionResult struct {
	// Status is optimal, feasible, infeasible, or unbounded; feasible
	// marks an anytime incumbent (see Gap) and Degraded, when non-empty,
	// names the exhausted budget that forced a heuristic fallback.
	Status   string  `json:"status"`
	Degraded string  `json:"degraded,omitempty"`
	Area     float64 `json:"area"`
	Gain     int64   `json:"gain"`
	// Gap is the relative optimality gap of a feasible (anytime) result;
	// 0 for optimal results, -1 when no finite bound is known.
	Gap               float64     `json:"gap"`
	SInstructions     int         `json:"sInstructions"`
	SCallsImplemented int         `json:"sCallsImplemented"`
	Nodes             int         `json:"nodes"`
	PathGains         []int64     `json:"pathGains,omitempty"`
	Chosen            []ChosenIMP `json:"chosen,omitempty"`
	// Portfolio carries the per-engine attribution of a portfolio-mode
	// solve (nil for plain exact solves).
	Portfolio *PortfolioInfo `json:"portfolio,omitempty"`
}

// PortfolioInfo is the per-engine attribution of a portfolio race: who
// won the race to the first acceptable answer, who produced the settled
// result, and whether the exact proof confirmed the fast answer.
type PortfolioInfo struct {
	// Engine produced the settled selection (capacity, seed, greedy,
	// exact).
	Engine string `json:"engine"`
	// Gap is the settled proven relative area gap (0 when proven, -1
	// when no finite bound is known).
	Gap float64 `json:"gap"`
	// FirstEngine/FirstArea/FirstGap describe the first acceptable
	// answer delivered during the race.
	FirstEngine string  `json:"firstEngine"`
	FirstArea   float64 `json:"firstArea"`
	FirstGap    float64 `json:"firstGap"`
	// FirstMs and SettleMs are the times from race start to the first
	// acceptable answer and to the settled result, in milliseconds.
	FirstMs  float64 `json:"firstMs"`
	SettleMs float64 `json:"settleMs"`
	// Confirmed reports that the race settled with a proof agreeing
	// with the first answer.
	Confirmed bool `json:"confirmed"`
	// Seeded reports an incremental re-solve whose race had the parent's
	// selection as its seed candidate.
	Seeded bool `json:"seeded,omitempty"`
}

// NewPortfolioSelectionResult flattens a portfolio race outcome into
// the wire schema: the settled selection plus per-engine attribution.
func NewPortfolioSelectionResult(r *partita.PortfolioResult) *SelectionResult {
	if r == nil {
		return nil
	}
	out := NewSelectionResult(r.Sel)
	if out == nil {
		return nil
	}
	gap := r.Gap
	if math.IsInf(gap, 0) || math.IsNaN(gap) {
		gap = -1
	}
	firstGap := r.FirstGap
	if math.IsInf(firstGap, 0) || math.IsNaN(firstGap) {
		firstGap = -1
	}
	info := &PortfolioInfo{
		Engine:      string(r.Engine),
		Gap:         gap,
		FirstEngine: string(r.FirstEngine),
		FirstGap:    firstGap,
		FirstMs:     float64(r.First.Microseconds()) / 1e3,
		SettleMs:    float64(r.Settled.Microseconds()) / 1e3,
		Confirmed:   r.Confirmed,
		Seeded:      r.Seeded,
	}
	if r.FirstSel != nil {
		info.FirstArea = r.FirstSel.Area
	}
	out.Portfolio = info
	return out
}

// ChosenIMP is one selected implementation method.
type ChosenIMP struct {
	ID          string  `json:"id"`
	SCall       string  `json:"sCall"`
	Func        string  `json:"func"`
	IP          string  `json:"ip"`
	Interface   string  `json:"interface"`
	GainPerExec int64   `json:"gainPerExec"`
	TotalGain   int64   `json:"totalGain"`
	IfaceArea   float64 `json:"ifaceArea"`
	UsesPC      bool    `json:"usesPC,omitempty"`
	Flattened   string  `json:"flattened,omitempty"`
}

// NewSelectionResult flattens a Selection into the wire schema.
func NewSelectionResult(sel *partita.Selection) *SelectionResult {
	if sel == nil {
		return nil
	}
	gap := sel.Gap
	if math.IsInf(gap, 0) || math.IsNaN(gap) {
		gap = -1
	}
	out := &SelectionResult{
		Status:            sel.Status.String(),
		Degraded:          sel.Degraded,
		Area:              sel.Area,
		Gain:              sel.Gain,
		Gap:               gap,
		SInstructions:     sel.SInstructions,
		SCallsImplemented: sel.SCallsImplemented,
		Nodes:             sel.Nodes,
		PathGains:         sel.PathGains,
	}
	for _, m := range sel.Chosen {
		out.Chosen = append(out.Chosen, ChosenIMP{
			ID:          m.ID,
			SCall:       m.SC.Name(),
			Func:        m.SC.Func,
			IP:          m.IP.ID,
			Interface:   m.Cand.Type.String(),
			GainPerExec: m.GainPerExec,
			TotalGain:   m.TotalGain,
			IfaceArea:   m.IfaceArea,
			UsesPC:      m.UsesPC,
			Flattened:   m.Flattened,
		})
	}
	return out
}

// Outcome classifies a selection for the completion metrics: degraded,
// optimal, feasible, infeasible, or unbounded.
func Outcome(sel *partita.Selection) string {
	switch {
	case sel == nil:
		return "error"
	case sel.Degraded != "":
		return "degraded"
	default:
		return sel.Status.String()
	}
}

// SCallInfo is one s-call candidate row of an analysis result.
type SCallInfo struct {
	Name      string `json:"name"`
	Func      string `json:"func"`
	Sites     int    `json:"sites"`
	TotalFreq int64  `json:"totalFreq"`
	TSW       int64  `json:"tSW"`
}

// AnalyzeResult summarizes a built design.
type AnalyzeResult struct {
	Root             string      `json:"root"`
	SCalls           []SCallInfo `json:"sCalls"`
	IMPs             int         `json:"imps"`
	Paths            int         `json:"paths"`
	MaxReachableGain int64       `json:"maxReachableGain"`
}

// NewAnalyzeResult summarizes a design in the wire schema.
func NewAnalyzeResult(d *partita.Design) *AnalyzeResult {
	out := &AnalyzeResult{
		Root:             d.Root,
		IMPs:             len(d.DB.IMPs),
		Paths:            len(d.DB.Paths),
		MaxReachableGain: selector.MaxReachableGain(d.DB),
	}
	for _, sc := range d.DB.SCalls {
		out.SCalls = append(out.SCalls, SCallInfo{
			Name: sc.Name(), Func: sc.Func, Sites: len(sc.Sites),
			TotalFreq: sc.TotalFreq, TSW: sc.TSW,
		})
	}
	return out
}

// SweepPointResult is one solved point of a design-space sweep.
type SweepPointResult struct {
	RequiredGain int64            `json:"requiredGain"`
	Selection    *SelectionResult `json:"selection"`
}

// NewSweepResult flattens a sweep into the wire schema.
func NewSweepResult(pts []partita.SweepPoint) []SweepPointResult {
	out := make([]SweepPointResult, 0, len(pts))
	for _, p := range pts {
		out = append(out, SweepPointResult{RequiredGain: p.Required, Selection: NewSelectionResult(p.Sel)})
	}
	return out
}

// Solved reports whether a selection result carries a usable
// configuration (optimal or anytime-feasible, possibly degraded).
func (r *SelectionResult) Solved() bool {
	return r != nil && (r.Status == ilp.Optimal.String() || r.Status == ilp.Feasible.String())
}

// provenOutcome reports whether a completion outcome is a proof —
// optimal or infeasible — rather than an anytime incumbent or a
// degraded fallback. Only proven outcomes are safe to memoize from a
// budget-clamped solve: the clamp shrinks the time the solver got, so
// anything short of a proof may differ from what the full budget would
// have produced under the same content address.
func provenOutcome(outcome string) bool {
	return outcome == ilp.Optimal.String() || outcome == ilp.Infeasible.String()
}
