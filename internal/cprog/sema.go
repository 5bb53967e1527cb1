package cprog

import "fmt"

// SymKind classifies a resolved symbol.
type SymKind int

const (
	SymScalar SymKind = iota
	SymArray
	SymFunc
)

// Symbol is one resolved name.
type Symbol struct {
	Name  string
	Kind  SymKind
	Size  int  // array length (globals/locals); 0 for params and scalars
	Bank  Bank // resolved bank for arrays
	Param bool // declared as a function parameter
}

// FuncInfo is the semantic summary of one function.
type FuncInfo struct {
	Decl *FuncDecl
	// Locals lists every local/param symbol in declaration order.
	Locals []*Symbol
	// Calls lists callee names in source order (with repeats).
	Calls []string
}

// Info is the result of semantic analysis over a File.
type Info struct {
	File    *File
	Globals map[string]*Symbol
	Funcs   map[string]*FuncInfo
}

// Analyze resolves names, checks arity and scalar/array usage, assigns
// memory banks to BankAuto arrays (alternating X then Y in declaration
// order so dual-memory fetches can pair), and rejects recursion — the
// kernel's µ-code sequencer has a bounded call stack and the Partita flow
// (like most DSP codegen of its era) assumes a recursion-free call graph.
func Analyze(f *File) (*Info, error) {
	info := &Info{
		File:    f,
		Globals: map[string]*Symbol{},
		Funcs:   map[string]*FuncInfo{},
	}

	autoBank := BankX
	nextAuto := func() Bank {
		b := autoBank
		if autoBank == BankX {
			autoBank = BankY
		} else {
			autoBank = BankX
		}
		return b
	}

	for _, g := range f.Globals {
		if info.Globals[g.Name] != nil {
			return nil, errf(g.Pos, "duplicate global %q", g.Name)
		}
		s := &Symbol{Name: g.Name, Size: g.Size}
		if g.Size > 0 {
			s.Kind = SymArray
			s.Bank = g.Bank
			if s.Bank == BankAuto {
				s.Bank = nextAuto()
			}
			g.Bank = s.Bank
		} else if g.Bank != BankAuto {
			return nil, errf(g.Pos, "memory qualifier on scalar %q", g.Name)
		}
		info.Globals[g.Name] = s
	}

	for _, fn := range f.Funcs {
		if info.Funcs[fn.Name] != nil {
			return nil, errf(fn.Pos, "duplicate function %q", fn.Name)
		}
		if info.Globals[fn.Name] != nil {
			return nil, errf(fn.Pos, "function %q shadows a global", fn.Name)
		}
		info.Funcs[fn.Name] = &FuncInfo{Decl: fn}
	}

	for _, fn := range f.Funcs {
		fi := info.Funcs[fn.Name]
		c := &checker{info: info, fi: fi, autoBank: nextAuto}
		if err := c.checkFunc(fn); err != nil {
			return nil, err
		}
	}

	if err := rejectRecursion(info); err != nil {
		return nil, err
	}
	return info, nil
}

type checker struct {
	info      *Info
	fi        *FuncInfo
	scopes    []map[string]*Symbol
	autoBank  func() Bank
	hasRet    bool
	loopDepth int
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(s *Symbol, pos Pos) error {
	top := c.scopes[len(c.scopes)-1]
	if top[s.Name] != nil {
		return errf(pos, "duplicate declaration of %q", s.Name)
	}
	top[s.Name] = s
	c.fi.Locals = append(c.fi.Locals, s)
	return nil
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s := c.scopes[i][name]; s != nil {
			return s
		}
	}
	return c.info.Globals[name]
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	c.push()
	defer c.pop()
	for _, p := range fn.Params {
		s := &Symbol{Name: p.Name, Param: true}
		if p.IsArray {
			s.Kind = SymArray
			s.Bank = p.Bank
			if s.Bank == BankAuto {
				s.Bank = c.autoBank()
			}
			p.Bank = s.Bank
		}
		if err := c.declare(s, p.Pos); err != nil {
			return err
		}
	}
	if err := c.checkBlock(fn.Body); err != nil {
		return err
	}
	if !fn.Void && !c.hasRet {
		return errf(fn.Pos, "function %q returns int but has no return statement", fn.Name)
	}
	return nil
}

func (c *checker) checkBlock(b *BlockStmt) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return c.checkBlock(st)
	case *DeclStmt:
		d := st.Decl
		sym := &Symbol{Name: d.Name, Size: d.Size}
		if d.Size > 0 {
			sym.Kind = SymArray
			sym.Bank = d.Bank
			if sym.Bank == BankAuto {
				sym.Bank = c.autoBank()
			}
			d.Bank = sym.Bank
		} else {
			if d.Bank != BankAuto {
				return errf(d.Pos, "memory qualifier on scalar %q", d.Name)
			}
			if len(d.Init) > 1 {
				return errf(d.Pos, "scalar %q with %d initializers", d.Name, len(d.Init))
			}
		}
		return c.declare(sym, d.Pos)
	case *AssignStmt:
		if err := c.checkLValue(st.LHS); err != nil {
			return err
		}
		return c.checkExpr(st.RHS, false)
	case *ExprStmt:
		return c.checkExpr(st.X, false)
	case *IfStmt:
		if err := c.checkExpr(st.Cond, false); err != nil {
			return err
		}
		if err := c.checkBlock(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkBlock(st.Else)
		}
		return nil
	case *WhileStmt:
		if err := c.checkExpr(st.Cond, false); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(st.Body)
	case *ForStmt:
		if st.Init != nil {
			if err := c.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := c.checkExpr(st.Cond, false); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := c.checkStmt(st.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(st.Body)
	case *BreakStmt:
		if c.loopDepth == 0 {
			return errf(st.Pos_, "break outside a loop")
		}
		return nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return errf(st.Pos_, "continue outside a loop")
		}
		return nil
	case *ReturnStmt:
		c.hasRet = true
		if st.Value != nil {
			if c.fi.Decl.Void {
				return errf(st.Pos_, "void function %q returns a value", c.fi.Decl.Name)
			}
			return c.checkExpr(st.Value, false)
		}
		if !c.fi.Decl.Void {
			return errf(st.Pos_, "function %q must return a value", c.fi.Decl.Name)
		}
		return nil
	}
	return fmt.Errorf("cprog: unknown statement %T", s)
}

func (c *checker) checkLValue(e Expr) error {
	switch x := e.(type) {
	case *VarRef:
		s := c.lookup(x.Name)
		if s == nil {
			return errf(x.Pos_, "undefined variable %q", x.Name)
		}
		if s.Kind != SymScalar {
			return errf(x.Pos_, "cannot assign to array %q without an index", x.Name)
		}
		return nil
	case *IndexExpr:
		s := c.lookup(x.Array)
		if s == nil {
			return errf(x.Pos_, "undefined array %q", x.Array)
		}
		if s.Kind != SymArray {
			return errf(x.Pos_, "%q is not an array", x.Array)
		}
		return c.checkExpr(x.Index, false)
	}
	return errf(e.Position(), "invalid assignment target")
}

// checkExpr validates e. asArg permits a bare array name (used when an
// array is passed to a call).
func (c *checker) checkExpr(e Expr, asArg bool) error {
	switch x := e.(type) {
	case *NumExpr:
		return nil
	case *VarRef:
		s := c.lookup(x.Name)
		if s == nil {
			return errf(x.Pos_, "undefined variable %q", x.Name)
		}
		if s.Kind == SymArray && !asArg {
			return errf(x.Pos_, "array %q used without an index", x.Name)
		}
		if s.Kind == SymFunc {
			return errf(x.Pos_, "function %q used as a value", x.Name)
		}
		return nil
	case *IndexExpr:
		s := c.lookup(x.Array)
		if s == nil {
			return errf(x.Pos_, "undefined array %q", x.Array)
		}
		if s.Kind != SymArray {
			return errf(x.Pos_, "%q is not an array", x.Array)
		}
		return c.checkExpr(x.Index, false)
	case *CallExpr:
		fi := c.info.Funcs[x.Callee]
		if fi == nil {
			return errf(x.Pos_, "call to undefined function %q", x.Callee)
		}
		if len(x.Args) != len(fi.Decl.Params) {
			return errf(x.Pos_, "%q called with %d arguments, wants %d", x.Callee, len(x.Args), len(fi.Decl.Params))
		}
		for i, a := range x.Args {
			p := fi.Decl.Params[i]
			if p.IsArray {
				ref, ok := a.(*VarRef)
				if !ok {
					return errf(a.Position(), "argument %d of %q must be an array name", i+1, x.Callee)
				}
				s := c.lookup(ref.Name)
				if s == nil || s.Kind != SymArray {
					return errf(a.Position(), "argument %d of %q: %q is not an array", i+1, x.Callee, ref.Name)
				}
				continue
			}
			if err := c.checkExpr(a, false); err != nil {
				return err
			}
		}
		c.fi.Calls = append(c.fi.Calls, x.Callee)
		return nil
	case *BinaryExpr:
		if err := c.checkExpr(x.X, false); err != nil {
			return err
		}
		return c.checkExpr(x.Y, false)
	case *UnaryExpr:
		return c.checkExpr(x.X, false)
	}
	return fmt.Errorf("cprog: unknown expression %T", e)
}

// rejectRecursion reports an error if the call graph has a cycle.
func rejectRecursion(info *Info) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("cprog: recursive call cycle involving %q (path %v)", name, path)
		case black:
			return nil
		}
		color[name] = gray
		fi := info.Funcs[name]
		if fi != nil {
			for _, callee := range fi.Calls {
				if err := visit(callee, append(path, callee)); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	for name := range info.Funcs {
		if err := visit(name, []string{name}); err != nil {
			return err
		}
	}
	return nil
}

// CallGraph returns the static call multigraph: caller → callees in
// source order (with repeats, one entry per call site).
func (i *Info) CallGraph() map[string][]string {
	g := make(map[string][]string, len(i.Funcs))
	for name, fi := range i.Funcs {
		g[name] = append([]string(nil), fi.Calls...)
	}
	return g
}
