package cdfg

import "math"

// PCOptions controls parallel-code extraction.
type PCOptions struct {
	// AllowSCalls permits software implementations of other s-calls
	// inside the parallel code (the paper's Problem 2). Under Problem 1
	// they are excluded.
	AllowSCalls bool
	// IsSCall reports whether a callee is an s-call candidate (i.e. an
	// IP exists for it). Non-candidate calls may always appear in
	// parallel code. A nil IsSCall treats every call as a candidate.
	IsSCall func(callee string) bool
	// MaxPaths caps execution-path enumeration (default 64).
	MaxPaths int
}

// PCResult is the parallel code of one s-call.
type PCResult struct {
	// Cost is the guaranteed parallel-code execution time T_C per
	// execution of the call: the minimum over all execution paths
	// following the call (Definition 5).
	Cost int64
	// Nodes is the parallel code of the limiting (minimum-time) path.
	Nodes []*Node
	// SCallNodes lists the s-call nodes contained in Nodes; non-empty
	// only when AllowSCalls is set. These induce the paper's SC-PC
	// conflicts.
	SCallNodes []*Node
	// PerPath records the PC time found on each path containing the
	// call (diagnostics and tests).
	PerPath []int64
}

// ParallelCode extracts PC_i for the given call node per Definitions 3-5:
// on every execution path containing the call, take the maximal set of
// later nodes in the same execution branch that (a) have no transitive
// dependence relation with the call and (b) whose intervening
// dependence predecessors are all included — i.e. the largest independent
// code segment arrangeable immediately after the call. The guaranteed PC
// is the minimum-time one across paths.
func ParallelCode(g *Graph, call *Node, opt PCOptions) PCResult {
	if opt.MaxPaths <= 0 {
		opt.MaxPaths = 64
	}
	isSC := opt.IsSCall
	if isSC == nil {
		isSC = func(string) bool { return true }
	}

	best := PCResult{Cost: math.MaxInt64}
	found := false
	for _, path := range g.Paths(opt.MaxPaths) {
		k := -1
		for i, n := range path {
			if n == call {
				k = i
				break
			}
		}
		if k < 0 {
			continue
		}
		found = true
		clo := DepClosure(path)
		included := make([]bool, len(path))
		var cost int64
		var nodes, scNodes []*Node
		for j := k + 1; j < len(path); j++ {
			n := path[j]
			if n.Scope != call.Scope {
				continue
			}
			if !clo.Independent(k, j) {
				continue
			}
			if n.Kind == NodeCall && isSC(n.Name) && !opt.AllowSCalls {
				continue
			}
			ok := true
			for p := k + 1; p < j; p++ {
				if clo.Reaches(p, j) && !included[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			included[j] = true
			cost += n.Cost
			nodes = append(nodes, n)
			if n.Kind == NodeCall && isSC(n.Name) {
				scNodes = append(scNodes, n)
			}
		}
		best.PerPath = append(best.PerPath, cost)
		if cost < best.Cost {
			best.Cost = cost
			best.Nodes = nodes
			best.SCallNodes = scNodes
		}
	}
	if !found {
		return PCResult{}
	}
	return best
}

// CallNode returns the i'th call node (source order), or nil.
func (g *Graph) CallNode(i int) *Node {
	if i < 0 || i >= len(g.Calls) {
		return nil
	}
	return g.Calls[i]
}

// CallsTo returns the call nodes whose callee is name, in source order.
func (g *Graph) CallsTo(name string) []*Node {
	var out []*Node
	for _, c := range g.Calls {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// PathGainDemand computes, for each enumerated execution path, the list
// of call nodes on it. The selector uses this to build the paper's
// per-path performance constraints (Eq. 2).
func (g *Graph) PathGainDemand(maxPaths int) [][]*Node {
	if maxPaths <= 0 {
		maxPaths = 64
	}
	var out [][]*Node
	for _, p := range g.Paths(maxPaths) {
		var calls []*Node
		for _, n := range p {
			if n.Kind == NodeCall {
				calls = append(calls, n)
			}
		}
		out = append(out, calls)
	}
	return out
}
