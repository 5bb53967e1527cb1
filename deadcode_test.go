package partita

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExempt names the internal functions TestNoDeadInternalFuncs keeps
// although nothing needs them, each with the reason it stays.
var deadExempt = map[string]string{
	"(*partita/internal/journal.Journal).Sync": "a durability flush; safety code stays before any caller needs it",
}

// TestNoDeadInternalFuncs fails when a function or method declared in a
// non-test file under internal/ is needed by nothing. It is needed when a
// non-test file of the module or of bench/ reaches it, when an exported
// name of partita or partita/client exposes it, or when another package's
// tests call it. Code that only its own package's tests call belongs in
// that package's _test.go files.
//
// The module is type-checked from source, so a name that collides with a
// live one elsewhere (selector.Sweep and Design.Sweep, say) is told apart
// by the object it denotes, not by its spelling.
func TestNoDeadInternalFuncs(t *testing.T) {
	m := loadModule(t)
	live := map[*types.Func]bool{}
	var visit func(*types.Func)
	visit = func(fn *types.Func) {
		if !live[fn] {
			live[fn] = true
			if fd := m.decls[fn]; fd != nil {
				m.uses(fd, visit)
			}
		}
	}
	for _, fn := range m.roots(t) {
		visit(fn)
	}

	var dead []*types.Func
	exempt := 0
	for fn := range m.decls {
		if _, ok := deadExempt[fn.FullName()]; ok {
			exempt++
			if live[fn] {
				t.Errorf("%s is needed now; drop it from deadExempt", fn.FullName())
			}
		} else if !live[fn] && isInternal(fn.Pkg().Path()) {
			dead = append(dead, fn)
		}
	}
	if exempt != len(deadExempt) {
		t.Errorf("deadExempt names %d functions, but only %d of them are declared", len(deadExempt), exempt)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	for _, fn := range dead {
		t.Errorf("%s: %s is needed by nothing outside its package's tests: delete it, or move it into its package's _test.go files",
			m.fset.Position(fn.Pos()), fn.FullName())
	}
}

// fieldExempt names the struct fields TestNoDeadInternalFields keeps
// although no non-test code names them, each with the reason it stays.
var fieldExempt = map[string]string{
	"budget.Budget.Parallelism":       "deprecated and ignored; kept so existing callers still compile",
	"service.JobSpec.Parallelism":     "deprecated and ignored; kept so existing job requests still decode",
	"service.BatchPoint.Parallelism":  "deprecated and ignored; kept so existing batch requests still decode",
	"service.EditRequest.Parallelism": "deprecated and ignored; kept so existing edit requests still decode",
	"service.PortfolioInfo.Seeded":    "deprecated and always false; kept in the result schema",
}

// TestNoDeadInternalFields fails on every field of a struct declared in
// a non-test file under internal/ that no non-test file of the module or
// of bench/ names. A field is named by a selector, by the key of a keyed
// literal, or by any unkeyed literal of its struct. Embedded fields are
// not checked: their promoted fields and methods name them.
func TestNoDeadInternalFields(t *testing.T) {
	m := loadModule(t)
	named := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if v, ok := m.info.Uses[n].(*types.Var); ok && v.IsField() {
						named[v.Origin()] = true
					}
				case *ast.CompositeLit:
					if len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
						break
					}
					typ := m.info.Types[n].Type
					if ptr, ok := typ.Underlying().(*types.Pointer); ok {
						typ = ptr.Elem() // an elided &T{...}
					}
					if st, ok := typ.Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							named[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}

	// fieldExempt names a field of a package-level struct type as
	// pkg.Type.Field.
	names := map[*types.Var]string{}
	for path, p := range m.pkgs {
		if !isInternal(path) {
			continue
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						names[st.Field(i)] = p.name + "." + name + "." + st.Field(i).Name()
					}
				}
			}
		}
	}
	var dead []*types.Var
	exempt := 0
	for _, obj := range m.info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() || v.Embedded() || !isInternal(v.Pkg().Path()) ||
			strings.HasSuffix(m.fset.Position(v.Pos()).Filename, "_test.go") {
			continue
		}
		if _, ok := fieldExempt[names[v]]; ok {
			exempt++
			if named[v] {
				t.Errorf("%s is named now; drop it from fieldExempt", names[v])
			}
		} else if !named[v] {
			dead = append(dead, v)
		}
	}
	if exempt != len(fieldExempt) {
		t.Errorf("fieldExempt names %d fields, but only %d of them are declared", len(fieldExempt), exempt)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	for _, v := range dead {
		t.Errorf("%s: field %s is named by no non-test code: delete it", m.fset.Position(v.Pos()), v.Name())
	}
}

func isInternal(path string) bool { return strings.HasPrefix(path, "partita/internal/") }

// srcPkg is one directory's Go files, split the way go test compiles them.
type srcPkg struct {
	name   string
	files  []*ast.File // non-test files
	tests  []*ast.File // _test.go files of the same package
	xtests []*ast.File // _test.go files of package name_test
	pkg    *types.Package
	check  *types.Checker
}

type module struct {
	fset  *token.FileSet
	pkgs  map[string]*srcPkg // by import path
	std   types.Importer
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl // every function of a non-test file
}

// loadModule parses every .go file of the module and of bench/, skipping
// dot directories and testdata, and type-checks each package from source:
// first its non-test files, then its own tests into the same package, then
// any external tests. The standard library comes from export data.
func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{
		fset: token.NewFileSet(),
		pkgs: map[string]*srcPkg{},
		std:  importer.Default(),
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		decls: map[*types.Func]*ast.FuncDecl{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := "partita"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ip += "/" + dir // bench/ is module partita/bench
		}
		p := m.pkgs[ip]
		if p == nil {
			p = &srcPkg{}
			m.pkgs[ip] = p
		}
		switch name := f.Name.Name; {
		case !strings.HasSuffix(path, "_test.go"):
			p.name, p.files = name, append(p.files, f)
		case strings.HasSuffix(name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range m.pkgs {
		if _, err := m.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	for ip, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					m.decls[m.info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
		if err := p.check.Files(p.tests); err != nil {
			t.Fatal(err)
		}
		if len(p.xtests) > 0 {
			xp := types.NewPackage(ip+"_test", p.name+"_test")
			if err := types.NewChecker(&types.Config{Importer: m}, m.fset, xp, m.info).Files(p.xtests); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// Import type-checks a module package's non-test files on first use.
func (m *module) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.pkg == nil {
		p.pkg = types.NewPackage(path, p.name)
		p.check = types.NewChecker(&types.Config{Importer: m}, m.fset, p.pkg, m.info)
		if err := p.check.Files(p.files); err != nil {
			return nil, err
		}
	}
	return p.pkg, nil
}

// uses calls visit with every module function or method named inside n.
func (m *module) uses(n ast.Node, visit func(*types.Func)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := m.info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && m.pkgs[fn.Pkg().Path()] != nil {
				visit(fn.Origin())
			}
		}
		return true
	})
}

// roots returns the functions needed whatever the call graph says: every
// function outside internal/, package-level initializers, the methods that
// satisfy calledInterfaces, the exported methods of the internal types
// that partita's and partita/client's exported names reach, and the
// internal functions another package's tests name.
func (m *module) roots(t *testing.T) []*types.Func {
	var roots []*types.Func
	add := func(fn *types.Func) { roots = append(roots, fn) }
	for fn, fd := range m.decls {
		if !isInternal(fn.Pkg().Path()) || fd.Recv == nil && fd.Name.Name == "init" {
			add(fn)
		}
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if _, ok := d.(*ast.GenDecl); ok {
					m.uses(d, add)
				}
			}
		}
		for _, f := range append(p.tests, p.xtests...) {
			m.uses(f, func(fn *types.Func) {
				if fn.Pkg() != p.pkg {
					add(fn)
				}
			})
		}
	}

	for _, iface := range m.calledInterfaces(t) {
		for path, p := range m.pkgs {
			if !isInternal(path) {
				continue
			}
			for _, name := range p.pkg.Scope().Names() {
				tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || !types.Implements(types.NewPointer(tn.Type()), iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p.pkg, iface.Method(i).Name())
					add(obj.(*types.Func))
				}
			}
		}
	}

	w := apiWalker{seen: map[types.Type]bool{}, add: add}
	for _, path := range []string{"partita", "partita/client"} {
		scope := m.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				w.walk(obj.Type())
			}
		}
	}
	return roots
}

// calledInterfaces lists, once each, the interfaces whose methods run
// through no call the scan can see: the standard library calls the first
// ones, and cprog's Stmt and Expr carry marker methods that only restrict
// which types an AST node may hold.
func (m *module) calledInterfaces(t *testing.T) []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)
	ifaces := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete(),
	}
	for _, name := range []string{
		"fmt.Stringer",
		"net/http.Handler",
		"net/http.ResponseWriter",
		"sort.Interface",
		"container/heap.Interface",
		"context.Context",
		"partita/internal/cprog.Stmt",
		"partita/internal/cprog.Expr",
	} {
		dot := strings.LastIndex(name, ".")
		pkg, err := m.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface))
	}
	return ifaces
}

// apiWalker visits every type an exported name reaches and adds the
// exported methods of each named type it meets.
type apiWalker struct {
	seen map[types.Type]bool
	add  func(*types.Func)
}

func (w *apiWalker) walk(typ types.Type) {
	typ = types.Unalias(typ)
	if w.seen[typ] {
		return
	}
	w.seen[typ] = true
	switch typ := typ.(type) {
	case *types.Named:
		for i := 0; i < typ.TypeArgs().Len(); i++ {
			w.walk(typ.TypeArgs().At(i))
		}
		mset := types.NewMethodSet(typ)
		if !types.IsInterface(typ) {
			mset = types.NewMethodSet(types.NewPointer(typ))
		}
		for i := 0; i < mset.Len(); i++ {
			if fn := mset.At(i).Obj().(*types.Func); fn.Exported() {
				w.add(fn.Origin())
				w.walk(fn.Type())
			}
		}
		w.walk(typ.Underlying())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
		if m, ok := typ.(*types.Map); ok {
			w.walk(m.Key())
		}
		w.walk(typ.Elem())
	case *types.Signature:
		w.walk(typ.Params())
		w.walk(typ.Results())
	case *types.Tuple:
		for i := 0; i < typ.Len(); i++ {
			w.walk(typ.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < typ.NumFields(); i++ {
			if f := typ.Field(i); f.Exported() || f.Embedded() {
				w.walk(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < typ.NumMethods(); i++ {
			if fn := typ.Method(i); fn.Exported() {
				w.walk(fn.Type())
			}
		}
	}
}
