// Package imp builds the implementation-method (IMP) database of Choi et
// al. (DAC 1999), Section 4: for every s-call candidate (a function call
// implementable by an IP, Definition 1) it enumerates the possible
// implementation methods — each a combination of IP, interface method,
// and optionally a parallel code — with their performance gain and area.
//
// The generator also performs the paper's two structural analyses:
//
//   - *IMP flattening* for hierarchical calls: IMPs for a lower-level
//     s-call (e.g. the FFT inside a 1D-DCT inside a 2D-DCT) are lifted
//     into IMPs of the upper-level s-call that keep the rest of the
//     callee in software;
//   - *SC-PC conflict* computation for Problem 2: an IMP that uses the
//     software body of s-call S as its parallel code conflicts with
//     every IMP that implements S in hardware.
package imp

import (
	"fmt"
	"sort"
	"strconv"

	"partita/internal/cdfg"
	"partita/internal/cprog"
	"partita/internal/iface"
	"partita/internal/ip"
	"partita/internal/kernel"
)

// SCall is one s-call candidate: a group of call sites to the same
// function that must be implemented the same way. Under Problem 1 all
// sites of a function form one group; under Problem 2 every site is its
// own group (s-calls to the same function may be implemented in
// different ways).
type SCall struct {
	// Index is the SC number (SC1, SC2, ... in the paper's tables).
	Index int
	// Func is the callee.
	Func string
	// Sites are the call nodes in the root function's graph.
	Sites []*cdfg.Node
	// TSW is the software execution time of one call (T_SW).
	TSW int64
	// NIn/NOut are the data items moved per invocation.
	NIn, NOut int
	// TotalFreq is the summed execution frequency of all sites.
	TotalFreq int64
	// PC1 and PC2 are the guaranteed parallel codes under Problem 1
	// (no s-calls inside) and Problem 2 (software s-calls allowed).
	PC1, PC2 cdfg.PCResult
}

// Name returns the paper-style label ("SC3").
func (s *SCall) Name() string { return "SC" + strconv.Itoa(s.Index) }

// IMP is one implementation method for an s-call.
type IMP struct {
	// ID is a stable label like "SC3:IP12,IF0".
	ID string
	SC *SCall
	IP *ip.IP
	// Cand carries the interface type with its timing/area breakdown.
	Cand iface.Candidate
	// GainPerExec is the cycle gain of one execution of the s-call.
	GainPerExec int64
	// TotalGain is GainPerExec summed over all site frequencies.
	TotalGain int64
	// IfaceArea is the interface's area contribution (A_CNT + A_B + PT);
	// the IP's own area is shared via the fixed-charge formulation.
	IfaceArea float64
	// UsesPC marks methods that exploit a parallel code.
	UsesPC bool
	// PCSCalls lists the s-call nodes whose software bodies the parallel
	// code contains (non-empty only for Problem-2 methods); these induce
	// SC-PC conflicts.
	PCSCalls []*cdfg.Node
	// Flattened is non-empty for hierarchy-flattened methods: it names
	// the inner function whose calls the IP implements while the rest of
	// the outer callee stays in software.
	Flattened string
}

// DB is the generated database plus the structures the selector needs.
type DB struct {
	Root   string
	SCalls []*SCall
	IMPs   []*IMP
	// Paths lists, per execution path of the root function, the call
	// nodes on it (used for the per-path gain constraints, Eq. 2).
	Paths [][]*cdfg.Node
	// Conflicts are index pairs into IMPs that may not both be selected
	// (SC-PC conflicts, Problem 2's selection rule).
	Conflicts [][2]int
	// Graph is the root function's CDFG.
	Graph *cdfg.Graph
}

// Config controls database generation.
type Config struct {
	Catalog *ip.Catalog
	Area    kernel.AreaModel
	// DataCount reports the data items one invocation of fn moves
	// through an accelerator (inputs, outputs). When nil, a heuristic
	// derived from the callee's loop structure is used.
	DataCount func(fn string) (nIn, nOut int)
	// Problem2 enables per-site s-calls, software-s-call parallel codes,
	// and conflict generation. Problem 1 restrictions apply otherwise.
	Problem2 bool
	// MaxFlattenDepth bounds hierarchy flattening (default 3).
	MaxFlattenDepth int
	// CDFG carries graph-construction options.
	CDFG cdfg.Options
}

// Generate builds the IMP database for the root function of the program.
func Generate(info *cprog.Info, root string, cfg Config) (*DB, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("imp: nil IP catalog")
	}
	if cfg.MaxFlattenDepth <= 0 {
		cfg.MaxFlattenDepth = 3
	}
	if cfg.CDFG.MaxPaths == 0 {
		cfg.CDFG = cdfg.DefaultOptions()
	}
	g, err := cdfg.Build(info, root, cfg.CDFG)
	if err != nil {
		return nil, err
	}
	db := &DB{Root: root, Graph: g}

	accelerable := func(fn string) bool { return len(cfg.Catalog.For(fn)) > 0 }
	// A call is an s-call candidate if an IP implements it directly or
	// (through flattening) implements something inside it.
	isSC := func(fn string) bool {
		return accelerable(fn) || len(flattenTargets(info, fn, cfg, 1)) > 0
	}

	// Group call sites into SCalls.
	groups := map[string][]*cdfg.Node{}
	var order []string
	for _, c := range g.Calls {
		if !isSC(c.Name) {
			continue
		}
		key := c.Name
		if cfg.Problem2 {
			key = fmt.Sprintf("%s#%d", c.Name, c.Site)
		}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], c)
	}

	pcOpts := cdfg.PCOptions{IsSCall: isSC, MaxPaths: cfg.CDFG.MaxPaths}
	for i, key := range order {
		sites := groups[key]
		fn := sites[0].Name
		tsw := sites[0].Cost
		nIn, nOut := dataCount(info, fn, cfg)
		sc := &SCall{
			Index: i + 1,
			Func:  fn,
			Sites: sites,
			TSW:   tsw,
			NIn:   nIn,
			NOut:  nOut,
		}
		for _, s := range sites {
			sc.TotalFreq += s.Freq
		}
		sc.PC1 = minPC(g, sites, cdfg.PCOptions{IsSCall: isSC, MaxPaths: pcOpts.MaxPaths, AllowSCalls: false})
		if cfg.Problem2 {
			sc.PC2 = minPC(g, sites, cdfg.PCOptions{IsSCall: isSC, MaxPaths: pcOpts.MaxPaths, AllowSCalls: true})
		}
		db.SCalls = append(db.SCalls, sc)
	}

	// Enumerate IMPs.
	for _, sc := range db.SCalls {
		db.addDirectIMPs(sc, cfg)
		db.addFlattenedIMPs(info, sc, cfg)
	}

	// Execution paths (call nodes only).
	db.Paths = g.PathGainDemand(cfg.CDFG.MaxPaths)

	// SC-PC conflicts.
	if cfg.Problem2 {
		db.computeConflicts()
	}
	return db, nil
}

// addDirectIMPs enumerates (IP × interface × PC-use) methods that
// implement the s-call's own function.
func (db *DB) addDirectIMPs(sc *SCall, cfg Config) {
	for _, blk := range cfg.Catalog.For(sc.Func) {
		base := iface.Shape{NIn: sc.NIn, NOut: sc.NOut, TSW: sc.TSW}
		for t := iface.Type0; t < iface.NumTypes; t++ {
			cand, ok := iface.Plan(t, blk, base, cfg.Area)
			if !ok {
				continue
			}
			db.appendIMP(sc, blk, cand, false, nil, "")
			if t.SupportsParallel() {
				// Variant with Problem-1 parallel code.
				if sc.PC1.Cost > 0 {
					s := base
					s.TC = sc.PC1.Cost
					if cp, ok := iface.Plan(t, blk, s, cfg.Area); ok && cp.Gain > cand.Gain {
						db.appendIMP(sc, blk, cp, true, nil, "")
					}
				}
				// Variant with Problem-2 parallel code (software s-calls
				// inside).
				if cfg.Problem2 && sc.PC2.Cost > sc.PC1.Cost && len(sc.PC2.SCallNodes) > 0 {
					s := base
					s.TC = sc.PC2.Cost
					if cp, ok := iface.Plan(t, blk, s, cfg.Area); ok && cp.Gain > cand.Gain {
						db.appendIMP(sc, blk, cp, true, sc.PC2.SCallNodes, "")
					}
				}
			}
		}
	}
}

// flattenTargets lists inner functions of fn (transitively, up to depth)
// that have IPs in the catalog.
func flattenTargets(info *cprog.Info, fn string, cfg Config, depth int) []string {
	if depth > cfg.MaxFlattenDepth {
		return nil
	}
	fi := info.Funcs[fn]
	if fi == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, callee := range fi.Calls {
		if seen[callee] {
			continue
		}
		seen[callee] = true
		if len(cfg.Catalog.For(callee)) > 0 {
			out = append(out, callee)
		}
		out = append(out, flattenTargets(info, callee, cfg, depth+1)...)
	}
	// Dedup while preserving order.
	dedup := map[string]bool{}
	var uniq []string
	for _, f := range out {
		if !dedup[f] {
			dedup[f] = true
			uniq = append(uniq, f)
		}
	}
	sort.Strings(uniq)
	return uniq
}

// addFlattenedIMPs lifts lower-level IMPs into the s-call (IMP flatten):
// implement every call to `inner` inside the callee with an IP while the
// remaining callee code stays in software.
func (db *DB) addFlattenedIMPs(info *cprog.Info, sc *SCall, cfg Config) {
	for _, inner := range flattenTargets(info, sc.Func, cfg, 1) {
		if inner == sc.Func {
			continue
		}
		count, innerTSW := countDynamicCalls(info, sc.Func, inner, cfg)
		if count == 0 {
			continue
		}
		nIn, nOut := dataCount(info, inner, cfg)
		for _, blk := range cfg.Catalog.For(inner) {
			shape := iface.Shape{NIn: nIn, NOut: nOut, TSW: innerTSW}
			for t := iface.Type0; t < iface.NumTypes; t++ {
				cand, ok := iface.Plan(t, blk, shape, cfg.Area)
				if !ok || cand.Gain <= 0 {
					continue
				}
				// One execution of the outer s-call saves count ×
				// inner-gain cycles; the interface/IP cost is paid once.
				lifted := cand
				lifted.Gain = cand.Gain * count
				lifted.Exec = sc.TSW - lifted.Gain
				db.appendIMP(sc, blk, lifted, false, nil, inner)
			}
		}
	}
}

// countDynamicCalls counts how many times one execution of outer invokes
// inner (transitively), and returns inner's software time.
func countDynamicCalls(info *cprog.Info, outer, inner string, cfg Config) (int64, int64) {
	g, err := cdfg.Build(info, outer, cfg.CDFG)
	if err != nil {
		return 0, 0
	}
	var count int64
	var tsw int64
	for _, c := range g.Calls {
		if c.Name == inner {
			count += c.Freq
			tsw = c.Cost
			continue
		}
		// Recurse through intermediate levels.
		sub, subTSW := countDynamicCalls(info, c.Name, inner, cfg)
		if sub > 0 {
			count += sub * c.Freq
			tsw = subTSW
		}
	}
	return count, tsw
}

func (db *DB) appendIMP(sc *SCall, blk *ip.IP, cand iface.Candidate, usesPC bool, pcSCalls []*cdfg.Node, flattened string) {
	if cand.Gain <= 0 {
		return // useless method; software is at least as fast
	}
	id := fmt.Sprintf("%s:%s,%s", sc.Name(), blk.ID, cand.Type)
	if usesPC {
		id += "+PC"
	}
	if flattened != "" {
		id += "(via " + flattened + ")"
	}
	m := &IMP{
		ID:          id,
		SC:          sc,
		IP:          blk,
		Cand:        cand,
		GainPerExec: cand.Gain,
		TotalGain:   cand.Gain * sc.TotalFreq,
		IfaceArea:   cand.IfaceArea,
		UsesPC:      usesPC,
		PCSCalls:    pcSCalls,
		Flattened:   flattened,
	}
	db.IMPs = append(db.IMPs, m)
}

// minPC computes the guaranteed parallel code across all sites of an
// s-call group (the minimum, so the gain holds for every site and path).
func minPC(g *cdfg.Graph, sites []*cdfg.Node, opt cdfg.PCOptions) cdfg.PCResult {
	var best cdfg.PCResult
	first := true
	for _, s := range sites {
		r := cdfg.ParallelCode(g, s, opt)
		if first || r.Cost < best.Cost {
			best = r
			first = false
		}
	}
	return best
}

// computeConflicts links every Problem-2 IMP whose PC contains the
// software body of s-call node N with every IMP implementing N in
// hardware.
func (db *DB) computeConflicts() {
	siteOwner := map[*cdfg.Node]*SCall{}
	for _, sc := range db.SCalls {
		for _, s := range sc.Sites {
			siteOwner[s] = sc
		}
	}
	for i, a := range db.IMPs {
		for _, node := range a.PCSCalls {
			owner := siteOwner[node]
			if owner == nil {
				continue
			}
			for j, b := range db.IMPs {
				if j == i || b.SC != owner {
					continue
				}
				lo, hi := i, j
				if lo > hi {
					lo, hi = hi, lo
				}
				db.Conflicts = append(db.Conflicts, [2]int{lo, hi})
			}
		}
	}
	// Dedup.
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, c := range db.Conflicts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	db.Conflicts = out
}

// dataCount resolves the per-invocation data volume of fn.
func dataCount(info *cprog.Info, fn string, cfg Config) (int, int) {
	if cfg.DataCount != nil {
		if in, out := cfg.DataCount(fn); in > 0 || out > 0 {
			return in, out
		}
	}
	// Heuristic: the deepest static loop trip count in the callee is the
	// data-set size; in and out default to the same volume.
	n := maxTrips(info, fn, cfg)
	if n <= 0 {
		n = int64(8)
	}
	return int(n), int(n)
}

func maxTrips(info *cprog.Info, fn string, cfg Config) int64 {
	n, err := cdfg.MaxStaticTrips(info, fn, cfg.CDFG)
	if err != nil {
		return 0
	}
	return n
}

// Filter returns a copy of the database keeping only methods for which
// keep returns true. S-calls, paths and the graph are shared; conflicts
// are re-derived over the surviving methods. Used by the ablation
// experiments (e.g. "no parallel-code methods", "type-0 interfaces
// only").
func (db *DB) Filter(keep func(*IMP) bool) *DB {
	out := &DB{Root: db.Root, SCalls: db.SCalls, Paths: db.Paths, Graph: db.Graph}
	for _, m := range db.IMPs {
		if keep(m) {
			out.IMPs = append(out.IMPs, m)
		}
	}
	out.computeConflicts()
	return out
}

// IMPsFor returns the methods of one s-call.
func (db *DB) IMPsFor(sc *SCall) []*IMP {
	var out []*IMP
	for _, m := range db.IMPs {
		if m.SC == sc {
			out = append(out, m)
		}
	}
	return out
}
