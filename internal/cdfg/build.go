package cdfg

import (
	"fmt"

	"partita/internal/cprog"
)

// CostWeights is the synthetic AST-level execution-time model (cycles).
// The real Partita measured MOP cycle counts on its kernel; this
// estimator is calibrated against the naive lowering of package lower
// (scalar accesses go through an AGU set-up word, so loads and stores
// cost ~2 words).
type CostWeights struct {
	Op           int64 // one ALU/MUL operation
	DivOp        int64 // divide/remainder
	Const        int64 // literal materialization
	Load         int64 // scalar load (AGU + memory word)
	Store        int64 // scalar store
	IndexExtra   int64 // extra address arithmetic of an array access
	CallOverhead int64 // call/return pipeline cost + argument homing
	Branch       int64 // one conditional evaluation and branch
	LoopIter     int64 // per-iteration loop bookkeeping (induction + test)
}

// DefaultWeights matches the kernel.DefaultCost timing of naively
// lowered code to within a few percent on the package tests.
func DefaultWeights() CostWeights {
	return CostWeights{
		Op:           1,
		DivOp:        8,
		Const:        1,
		Load:         2,
		Store:        2,
		IndexExtra:   3,
		CallOverhead: 8,
		Branch:       4,
		LoopIter:     6,
	}
}

// Options configures graph construction.
type Options struct {
	// DefaultTrips is assumed for loops whose bounds are not static
	// constants.
	DefaultTrips int64
	// MaxPaths caps execution-path enumeration.
	MaxPaths int
	Cost     CostWeights
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{DefaultTrips: 8, MaxPaths: 64, Cost: DefaultWeights()}
}

// Summary is the externally visible effect set of a function.
type Summary struct {
	ReadsGlobals  map[string]bool
	WritesGlobals map[string]bool
	// ParamRead/ParamWrite are per-parameter flags; only array
	// parameters can be written through.
	ParamRead  []bool
	ParamWrite []bool
}

// builder carries the state of one Build invocation.
type builder struct {
	info      *cprog.Info
	opt       Options
	summaries map[string]*Summary
	swCost    map[string]int64
	nextID    int
	nextScope int
	nextSite  int
	nodes     []*Node
	calls     []*Node
}

// Build constructs the region graph of fn.
func Build(info *cprog.Info, fn string, opt Options) (*Graph, error) {
	fd := info.File.Func(fn)
	if fd == nil {
		return nil, fmt.Errorf("cdfg: unknown function %q", fn)
	}
	if opt.MaxPaths <= 0 {
		opt.MaxPaths = 64
	}
	if opt.DefaultTrips <= 0 {
		opt.DefaultTrips = 8
	}
	b := &builder{
		info:      info,
		opt:       opt,
		summaries: map[string]*Summary{},
		swCost:    map[string]int64{},
	}
	root := b.buildBlock(fd.Body, 0, 1)
	return &Graph{Fn: fn, Root: root, Nodes: b.nodes, Calls: b.calls}, nil
}

// ---- effect summaries -------------------------------------------------

func (b *builder) summary(fn string) *Summary {
	if s := b.summaries[fn]; s != nil {
		return s
	}
	fd := b.info.File.Func(fn)
	s := &Summary{
		ReadsGlobals:  map[string]bool{},
		WritesGlobals: map[string]bool{},
		ParamRead:     make([]bool, len(fd.Params)),
		ParamWrite:    make([]bool, len(fd.Params)),
	}
	b.summaries[fn] = s // no recursion in the language, but be safe

	paramIdx := map[string]int{}
	for i, p := range fd.Params {
		paramIdx[p.Name] = i
	}
	locals := map[string]bool{}
	var collect func(st cprog.Stmt)
	read := func(name string) {
		if i, ok := paramIdx[name]; ok {
			s.ParamRead[i] = true
		} else if !locals[name] {
			if _, ok := b.info.Globals[name]; ok {
				s.ReadsGlobals[name] = true
			}
		}
	}
	write := func(name string) {
		if i, ok := paramIdx[name]; ok {
			s.ParamWrite[i] = true
		} else if !locals[name] {
			if _, ok := b.info.Globals[name]; ok {
				s.WritesGlobals[name] = true
			}
		}
	}
	var readExpr func(e cprog.Expr)
	readExpr = func(e cprog.Expr) {
		switch x := e.(type) {
		case *cprog.VarRef:
			read(x.Name)
		case *cprog.IndexExpr:
			read(x.Array)
			readExpr(x.Index)
		case *cprog.BinaryExpr:
			readExpr(x.X)
			readExpr(x.Y)
		case *cprog.UnaryExpr:
			readExpr(x.X)
		case *cprog.CallExpr:
			cs := b.summary(x.Callee)
			for i, a := range x.Args {
				if ref, ok := a.(*cprog.VarRef); ok && b.isArrayAt(x.Callee, i) {
					if cs.ParamRead[i] {
						read(ref.Name)
					}
					if cs.ParamWrite[i] {
						write(ref.Name)
					}
					continue
				}
				readExpr(a)
			}
			for g := range cs.ReadsGlobals {
				s.ReadsGlobals[g] = true
			}
			for g := range cs.WritesGlobals {
				s.WritesGlobals[g] = true
			}
		}
	}
	collect = func(st cprog.Stmt) {
		switch x := st.(type) {
		case *cprog.BlockStmt:
			for _, k := range x.Stmts {
				collect(k)
			}
		case *cprog.DeclStmt:
			locals[x.Decl.Name] = true
		case *cprog.AssignStmt:
			readExpr(x.RHS)
			switch l := x.LHS.(type) {
			case *cprog.VarRef:
				write(l.Name)
			case *cprog.IndexExpr:
				write(l.Array)
				readExpr(l.Index)
			}
		case *cprog.ExprStmt:
			readExpr(x.X)
		case *cprog.IfStmt:
			readExpr(x.Cond)
			collect(x.Then)
			if x.Else != nil {
				collect(x.Else)
			}
		case *cprog.WhileStmt:
			readExpr(x.Cond)
			collect(x.Body)
		case *cprog.ForStmt:
			if x.Init != nil {
				collect(x.Init)
			}
			if x.Cond != nil {
				readExpr(x.Cond)
			}
			if x.Post != nil {
				collect(x.Post)
			}
			collect(x.Body)
		case *cprog.ReturnStmt:
			if x.Value != nil {
				readExpr(x.Value)
			}
		}
	}
	collect(fd.Body)
	return s
}

func (b *builder) isArrayAt(callee string, i int) bool {
	fd := b.info.File.Func(callee)
	if fd == nil || i >= len(fd.Params) {
		return false
	}
	return fd.Params[i].IsArray
}

// ---- cost estimation ---------------------------------------------------

func (b *builder) funcCost(fn string) int64 {
	if c, ok := b.swCost[fn]; ok {
		return c
	}
	fd := b.info.File.Func(fn)
	c := b.opt.Cost.CallOverhead + int64(len(fd.Params))*b.opt.Cost.Store
	c += b.blockCost(fd.Body)
	b.swCost[fn] = c
	return c
}

func (b *builder) blockCost(blk *cprog.BlockStmt) int64 {
	var c int64
	for _, s := range blk.Stmts {
		c += b.stmtCost(s)
	}
	return c
}

func (b *builder) stmtCost(s cprog.Stmt) int64 {
	w := b.opt.Cost
	switch x := s.(type) {
	case *cprog.BlockStmt:
		return b.blockCost(x)
	case *cprog.DeclStmt:
		return int64(len(x.Decl.Init)) * (w.Const + w.Store)
	case *cprog.AssignStmt:
		c := b.exprCost(x.RHS) + w.Store
		if idx, ok := x.LHS.(*cprog.IndexExpr); ok {
			c += b.exprCost(idx.Index) + w.IndexExtra
		}
		return c
	case *cprog.ExprStmt:
		return b.exprCost(x.X)
	case *cprog.IfStmt:
		// Expected cost: condition plus the mean of the branches.
		c := b.exprCost(x.Cond) + w.Branch
		tc := b.blockCost(x.Then)
		ec := int64(0)
		if x.Else != nil {
			ec = b.blockCost(x.Else)
		}
		return c + (tc+ec)/2
	case *cprog.WhileStmt:
		trips := b.opt.DefaultTrips
		return trips * (b.exprCost(x.Cond) + w.LoopIter + b.blockCost(x.Body))
	case *cprog.ForStmt:
		trips := b.tripCount(x)
		var c int64
		if x.Init != nil {
			c += b.stmtCost(x.Init)
		}
		var iter int64 = w.LoopIter
		if x.Cond != nil {
			iter += b.exprCost(x.Cond)
		}
		if x.Post != nil {
			iter += b.stmtCost(x.Post)
		}
		return c + trips*(iter+b.blockCost(x.Body))
	case *cprog.ReturnStmt:
		if x.Value != nil {
			return b.exprCost(x.Value) + w.Op
		}
		return w.Op
	case *cprog.BreakStmt, *cprog.ContinueStmt:
		return w.Branch
	}
	return 0
}

func (b *builder) exprCost(e cprog.Expr) int64 {
	w := b.opt.Cost
	switch x := e.(type) {
	case *cprog.NumExpr:
		return w.Const
	case *cprog.VarRef:
		return w.Load
	case *cprog.IndexExpr:
		return b.exprCost(x.Index) + w.Load + w.IndexExtra
	case *cprog.UnaryExpr:
		return b.exprCost(x.X) + w.Op
	case *cprog.BinaryExpr:
		c := b.exprCost(x.X) + b.exprCost(x.Y)
		switch x.Op {
		case "/", "%":
			c += w.DivOp
		case "<", "<=", ">", ">=", "==", "!=", "&&", "||":
			c += w.Branch
		default:
			c += w.Op
		}
		return c
	case *cprog.CallExpr:
		var c int64
		for _, a := range x.Args {
			if _, ok := a.(*cprog.VarRef); ok {
				c += w.Load
				continue
			}
			c += b.exprCost(a)
		}
		return c + b.funcCost(x.Callee)
	}
	return 0
}

// tripCount statically evaluates for (i = c0; i < c1; i = i ± c) loops.
func (b *builder) tripCount(f *cprog.ForStmt) int64 {
	def := b.opt.DefaultTrips
	if f.Init == nil || f.Cond == nil || f.Post == nil {
		return def
	}
	iv, ok := f.Init.LHS.(*cprog.VarRef)
	if !ok {
		return def
	}
	c0, ok := litValue(f.Init.RHS)
	if !ok {
		return def
	}
	cond, ok := f.Cond.(*cprog.BinaryExpr)
	if !ok {
		return def
	}
	cv, ok := cond.X.(*cprog.VarRef)
	if !ok || cv.Name != iv.Name {
		return def
	}
	c1, ok := litValue(cond.Y)
	if !ok {
		return def
	}
	pv, ok := f.Post.LHS.(*cprog.VarRef)
	if !ok || pv.Name != iv.Name {
		return def
	}
	post, ok := f.Post.RHS.(*cprog.BinaryExpr)
	if !ok {
		return def
	}
	pl, plOK := post.X.(*cprog.VarRef)
	step, stOK := litValue(post.Y)
	if !plOK || !stOK || pl.Name != iv.Name {
		return def
	}
	if post.Op == "-" {
		step = -step
	} else if post.Op != "+" {
		return def
	}
	var span int64
	switch cond.Op {
	case "<":
		span = c1 - c0
	case "<=":
		span = c1 - c0 + 1
	case ">":
		span = c0 - c1
		step = -step
	case ">=":
		span = c0 - c1 + 1
		step = -step
	default:
		return def
	}
	if step <= 0 || span <= 0 {
		return def
	}
	return (span + step - 1) / step
}

// MaxStaticTrips reports the largest single-loop trip count in fn's body
// (static for-loop bounds where detectable, DefaultTrips otherwise).
// Callers use it as a proxy for the data-set size a function streams.
func MaxStaticTrips(info *cprog.Info, fn string, opt Options) (int64, error) {
	fd := info.File.Func(fn)
	if fd == nil {
		return 0, fmt.Errorf("cdfg: unknown function %q", fn)
	}
	if opt.DefaultTrips <= 0 {
		opt.DefaultTrips = 8
	}
	b := &builder{info: info, opt: opt, summaries: map[string]*Summary{}, swCost: map[string]int64{}}
	var best int64
	var walk func(s cprog.Stmt)
	walk = func(s cprog.Stmt) {
		switch x := s.(type) {
		case *cprog.BlockStmt:
			for _, k := range x.Stmts {
				walk(k)
			}
		case *cprog.IfStmt:
			walk(x.Then)
			if x.Else != nil {
				walk(x.Else)
			}
		case *cprog.WhileStmt:
			if opt.DefaultTrips > best {
				best = opt.DefaultTrips
			}
			walk(x.Body)
		case *cprog.ForStmt:
			if n := b.tripCount(x); n > best {
				best = n
			}
			walk(x.Body)
		}
	}
	walk(fd.Body)
	return best, nil
}

func litValue(e cprog.Expr) (int64, bool) {
	n, ok := e.(*cprog.NumExpr)
	if !ok {
		return 0, false
	}
	return n.Value, true
}
