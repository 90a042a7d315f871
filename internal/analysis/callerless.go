package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Callerless reports code under internal/ that only its own package's
// tests use.
var Callerless = &Analyzer{
	Name: "callerless",
	Doc: `report package-level code under internal/ that only its own package's tests use

A func, method, struct field, const, var or type in a non-test file under
<module>/internal/ needs a user: non-test code of the module or of its bench/
module, a _test.go file in another package directory (type-checked, so a
same-named object of another type does not count), or used code. A method of
a used type is used when String, Error or an interface non-test code
mentions has a method of its name. What only bench/ uses is no finding but
the bench-only class.`,
	RunModule: func(pass *Pass) error {
		for _, s := range classify(pass.Packages, pass.Bench).dead {
			pass.Reportf(s.ident.Pos(), "%s is callerless: only its own package's tests or other callerless code use it", s.name(false))
		}
		return nil
	},
}

// symbol is one declaration in callerless's scope.
type symbol struct {
	pkg    *Package
	ident  *ast.Ident
	owner  string // the type a method or field belongs to
	of     string // and that type, keyed
	method bool
	refs   []string // keys of the objects the declaration references
}

// name is pkg.Owner.Name, the package given by its import path when long.
func (s *symbol) name(long bool) string {
	n := s.pkg.Types.Name()
	if long {
		n = s.pkg.PkgPath
	}
	if s.owner != "" {
		n += "." + s.owner
	}
	return n + "." + s.ident.Name
}

// callerlessResult splits the unused symbols: dead (in no order) have no
// user at all; benchOnly, by long name and sorted, are used by bench/ and
// nothing else, a bench-only type's methods and fields going with it.
type callerlessResult struct {
	dead      []*symbol
	benchOnly []string
}

// classify applies the callerless rule to the module's packages (root) and
// its bench/ module's (bench, possibly nil).
func classify(root, bench []*Package) callerlessResult {
	syms := map[string]*symbol{}
	var roots, benchRefs []string // references live whatever else is
	for _, pkg := range root {
		for _, f := range pkg.Files {
			if !strings.HasPrefix(pkg.PkgPath, pkg.Module+"/internal/") {
				roots = append(roots, refsOf(pkg.Fset, pkg.Info, f)...)
				continue
			}
			for _, d := range f.Decls {
				roots = append(roots, declare(pkg, d, syms)...)
			}
		}
	}
	for _, pkg := range bench {
		for _, f := range pkg.Files {
			benchRefs = append(benchRefs, refsOf(pkg.Fset, pkg.Info, f)...)
		}
	}

	// The method names of the interfaces non-test code mentions, and the
	// objects each directory's tests use from another directory's code.
	ifaces := map[string]bool{"String": true, "Error": true}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				ifaces[u.Method(i).Name()] = true
			}
		case *types.Signature:
			for i := 0; i < u.Params().Len(); i++ {
				visit(u.Params().At(i).Type())
			}
		}
	}
	for _, pkg := range append(append([]*Package(nil), root...), bench...) {
		for _, tv := range pkg.Info.Types {
			visit(tv.Type)
		}
		for _, f := range pkg.TestFiles {
			for _, k := range refsOf(pkg.Fset, pkg.testInfo, f) {
				if s := syms[k]; s != nil && s.pkg.Dir != pkg.Dir {
					roots = append(roots, k)
				}
			}
		}
	}

	live := reach(syms, roots, ifaces)
	liveWithBench := reach(syms, append(roots, benchRefs...), ifaces)
	var r callerlessResult
	for _, s := range syms {
		if !liveWithBench[s] {
			r.dead = append(r.dead, s)
		}
	}
	// A member of a bench-only type is listed with its type, not apart.
	seen := map[*symbol]bool{}
	for _, k := range benchRefs {
		if s := syms[k]; s != nil && !live[s] && !seen[s] && (s.of == "" || live[syms[s.of]]) {
			seen[s] = true
			r.benchOnly = append(r.benchOnly, s.name(true))
		}
	}
	sort.Strings(r.benchOnly)
	return r
}

// declare adds the symbols a top-level declaration introduces and returns
// the references that are live whatever else is: those of init functions
// and of blank (_) vars.
func declare(pkg *Package, decl ast.Decl, syms map[string]*symbol) (roots []string) {
	add := func(id *ast.Ident, owner string, body ast.Node) *symbol {
		s := &symbol{pkg: pkg, ident: id, owner: owner}
		if body != nil {
			s.refs = refsOf(pkg.Fset, pkg.Info, body)
		}
		syms[objKey(pkg.Fset, pkg.Info.Defs[id])] = s
		return s
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		recv := pkg.Info.Defs[d.Name].Type().(*types.Signature).Recv()
		switch {
		case recv != nil:
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named := t.(*types.Named).Obj()
			s := add(d.Name, named.Name(), d)
			s.of, s.method = objKey(pkg.Fset, named), true
		case d.Name.Name == "init":
			return refsOf(pkg.Fset, pkg.Info, d)
		default:
			add(d.Name, "", d)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range sp.Names {
					if id.Name == "_" {
						roots = append(roots, refsOf(pkg.Fset, pkg.Info, sp)...)
					} else {
						add(id, "", sp)
					}
				}
			case *ast.TypeSpec:
				st, ok := sp.Type.(*ast.StructType)
				if !ok {
					add(sp.Name, "", sp)
					continue
				}
				// Each named field is a symbol of its own; an embedded
				// field (used implicitly by promotion) and blank padding
				// stay with the type.
				s := add(sp.Name, "", nil)
				if sp.TypeParams != nil {
					s.refs = refsOf(pkg.Fset, pkg.Info, sp.TypeParams)
				}
				for _, field := range st.Fields.List {
					if len(field.Names) == 0 || field.Names[0].Name == "_" {
						s.refs = append(s.refs, refsOf(pkg.Fset, pkg.Info, field.Type)...)
					}
					for _, id := range field.Names {
						if id.Name != "_" {
							add(id, sp.Name.Name, field.Type).of = objKey(pkg.Fset, pkg.Info.Defs[sp.Name])
						}
					}
				}
			}
		}
	}
	return roots
}

// reach returns the symbols live from roots: a live symbol makes what it
// references live, and a live type its methods that ifaces names.
func reach(syms map[string]*symbol, roots []string, ifaces map[string]bool) map[*symbol]bool {
	live := map[*symbol]bool{}
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		for len(queue) > 0 {
			k := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if s := syms[k]; s != nil && !live[s] {
				live[s] = true
				queue = append(queue, s.refs...)
			}
		}
		for k, s := range syms {
			if s.method && !live[s] && ifaces[s.ident.Name] && live[syms[s.of]] {
				queue = append(queue, k)
			}
		}
	}
	return live
}

// refsOf returns the keys of the objects n references, as info resolved
// them, counting every field of a struct that an unkeyed composite literal
// fills.
func refsOf(fset *token.FileSet, info *types.Info, n ast.Node) []string {
	var refs []string
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && obj.Pkg() != nil {
				refs = append(refs, objKey(fset, obj))
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(x).Underlying().(*types.Struct)
			if !ok || len(x.Elts) == 0 {
				break
			}
			if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					refs = append(refs, objKey(fset, st.Field(i)))
				}
			}
		}
		return true
	})
	return refs
}

// objKey identifies an object by its declaration's file, line and name,
// which agree between a package type-checked from source and the same
// package imported from export data (which keeps no columns).
func objKey(fset *token.FileSet, obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	p := fset.Position(obj.Pos())
	return fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, obj.Name())
}
