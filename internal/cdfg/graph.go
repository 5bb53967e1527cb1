// Package cdfg builds the control/data-flow representation that the
// S-instruction generator of Choi et al. (DAC 1999) analyzes:
//
//   - Definition 3: a node with no transitive dependence path to or from
//     an s-call is *independent code* for that s-call (IC_i);
//   - Definition 4: an *independent code segment* (ICS_i) is a set of
//     IC_i's in the same execution branch that can be listed in sequence;
//   - Definition 5: the *parallel code* PC_i is the largest ICS_i (in
//     execution time) that can be arranged right after the s-call, taken
//     as the minimum over all execution paths following the call.
//
// The graph is built from the analyzed mini-C AST at code-segment
// granularity: every maximal call-free subtree collapses into one
// aggregate node carrying its execution-time estimate and variable
// read/write sets, while calls stay as individual nodes. The function
// body becomes a series-parallel region tree (sequence / alternative /
// loop) from which execution paths are enumerated.
package cdfg

import (
	"fmt"
	"strings"
)

// NodeKind classifies graph nodes.
type NodeKind int

const (
	// NodeStmt is an aggregate of call-free straight-line code (possibly
	// including whole call-free loops and conditionals).
	NodeStmt NodeKind = iota
	// NodeCall is a single function-call site.
	NodeCall
)

// Node is one schedulable unit of the function body.
type Node struct {
	ID   int
	Kind NodeKind
	// Name is the callee for calls, or a short description for
	// aggregates.
	Name string
	// Cost is the kernel execution time (cycles) of one execution of the
	// node. For calls it is the software execution time of the callee.
	Cost int64
	// Freq is how many times the node runs per invocation of the
	// function (the product of enclosing loop trip counts).
	Freq int64
	// Scope identifies the node's execution branch: nodes with equal
	// Scope run under the same branch decisions and loop nesting
	// (Definition 4's "same execution branch").
	Scope int
	// Site numbers call nodes in source order (0, 1, ...) within the
	// function; -1 for aggregates.
	Site int

	Reads, Writes map[string]bool
}

func (n *Node) String() string {
	if n.Kind == NodeCall {
		return fmt.Sprintf("call#%d %s(×%d)", n.Site, n.Name, n.Freq)
	}
	return fmt.Sprintf("stmt[%s](%d cyc ×%d)", n.Name, n.Cost, n.Freq)
}

// touches reports whether two nodes conflict on any variable
// (read/write, write/read, or write/write).
func touches(a, b *Node) bool {
	for v := range a.Writes {
		if b.Reads[v] || b.Writes[v] {
			return true
		}
	}
	for v := range a.Reads {
		if b.Writes[v] {
			return true
		}
	}
	return false
}

// RegionKind classifies region-tree nodes.
type RegionKind int

const (
	RLeaf RegionKind = iota
	RSeq
	RAlt
	RLoop
)

// Region is a series-parallel region of the function body.
type Region struct {
	Kind  RegionKind
	Kids  []*Region // RSeq: in order; RAlt: one per branch
	Leaf  *Node     // RLeaf
	Trips int64     // RLoop
}

// Graph is the analyzed body of one function.
type Graph struct {
	Fn    string
	Root  *Region
	Nodes []*Node
	// Calls lists the call nodes in source order.
	Calls []*Node
}

// Path is one execution path: the node sequence obtained by fixing every
// branch decision (loops appear once; Freq carries their repetition).
type Path []*Node

// Paths enumerates execution paths, capped at max (the cap guards
// against exponential branch structures; the paper's applications have a
// handful of top-level modes).
func (g *Graph) Paths(max int) []Path {
	paths := enumerate(g.Root, max)
	if len(paths) > max {
		paths = paths[:max]
	}
	return paths
}

func enumerate(r *Region, max int) []Path {
	if r == nil {
		return []Path{nil}
	}
	switch r.Kind {
	case RLeaf:
		return []Path{{r.Leaf}}
	case RSeq:
		acc := []Path{nil}
		for _, k := range r.Kids {
			kp := enumerate(k, max)
			var next []Path
			for _, a := range acc {
				for _, b := range kp {
					p := make(Path, 0, len(a)+len(b))
					p = append(p, a...)
					p = append(p, b...)
					next = append(next, p)
					if len(next) >= max {
						break
					}
				}
				if len(next) >= max {
					break
				}
			}
			acc = next
		}
		return acc
	case RAlt:
		var out []Path
		for _, k := range r.Kids {
			out = append(out, enumerate(k, max)...)
			if len(out) >= max {
				break
			}
		}
		if len(out) == 0 {
			out = []Path{nil}
		}
		return out
	case RLoop:
		return enumerate(r.Kids[0], max)
	}
	return []Path{nil}
}

// Closure is the transitive dependence closure over one path.
type Closure struct {
	n     int
	reach [][]bool // reach[i][j]: i (earlier) reaches j (later)
}

// DepClosure computes direct dependence edges between path positions
// (earlier → later when their effect sets conflict) and closes them
// transitively.
func DepClosure(p Path) *Closure {
	n := len(p)
	c := &Closure{n: n, reach: make([][]bool, n)}
	for i := range c.reach {
		c.reach[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if touches(p[i], p[j]) {
				c.reach[i][j] = true
			}
		}
	}
	// Transitive closure in topological (index) order.
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if !c.reach[i][j] {
				continue
			}
			for k := j + 1; k < n; k++ {
				if c.reach[j][k] {
					c.reach[i][k] = true
				}
			}
		}
	}
	return c
}

// Reaches reports whether position i's node transitively feeds position
// j's node (i < j in path order).
func (c *Closure) Reaches(i, j int) bool { return c.reach[i][j] }

// Independent reports whether positions i and j have no dependence path
// in either direction (Definition 3 relative to either node).
func (c *Closure) Independent(i, j int) bool {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	return !c.reach[lo][hi]
}

// String renders the graph structure for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s (%d nodes, %d calls)\n", g.Fn, len(g.Nodes), len(g.Calls))
	var walk func(r *Region, depth int)
	walk = func(r *Region, depth int) {
		if r == nil {
			return
		}
		ind := strings.Repeat("  ", depth)
		switch r.Kind {
		case RLeaf:
			fmt.Fprintf(&b, "%s%s scope=%d\n", ind, r.Leaf, r.Leaf.Scope)
		case RSeq:
			fmt.Fprintf(&b, "%sseq\n", ind)
			for _, k := range r.Kids {
				walk(k, depth+1)
			}
		case RAlt:
			fmt.Fprintf(&b, "%salt\n", ind)
			for _, k := range r.Kids {
				walk(k, depth+1)
			}
		case RLoop:
			fmt.Fprintf(&b, "%sloop ×%d\n", ind, r.Trips)
			walk(r.Kids[0], depth+1)
		}
	}
	walk(g.Root, 0)
	return b.String()
}
