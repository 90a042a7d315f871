package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one machine-checked invariant: a name (used on the command
// line and in //fpisa:ignore directives), a doc string describing the rule,
// and either a Run function that inspects one type-checked package or a
// RunModule function that sees the whole module at once.
//
// The shape deliberately mirrors golang.org/x/tools/go/analysis so the
// suite can be ported onto the upstream framework if the dependency ever
// becomes available; this repo vendors no third-party code, so the driver
// (load.go, cmd/fpisa-vet) is self-contained on go/parser + go/types +
// `go list -export`.
type Analyzer struct {
	// Name identifies the analyzer: lowercase, no spaces.
	Name string
	// Doc states the enforced invariant, first line summary-style.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
	// RunModule, set instead of Run, inspects the whole module at once
	// (Pass.Packages, Pass.Bench); the driver keeps only the findings in
	// the packages its patterns match.
	RunModule func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Packages and Bench are a RunModule pass's view instead: every
	// package of the module and, when the module root holds a bench/
	// module of its own, every package of that one.
	Packages, Bench []*Package

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzers returns the full fpisa-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockedCall, MixedAtomic, WireBounds, RetainCap, Callerless}
}

// ByName resolves a comma-separated analyzer list ("lockedcall,wirebounds")
// against the suite; an empty spec selects every analyzer.
func ByName(spec string) ([]*Analyzer, error) {
	all := Analyzers()
	if spec == "" {
		return all, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q (have %s)", name, names(all))
		}
	}
	return out, nil
}

func names(as []*Analyzer) string {
	var ns []string
	for _, a := range as {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}

// runPackage runs the per-package analyzers over one loaded package, adds
// raw (the whole-module analyzers' findings in it), applies the package's
// //fpisa:ignore directives, and returns the surviving findings (plus any
// directive-misuse findings) sorted by position.
func runPackage(pkg *Package, analyzers []*Analyzer, raw []Finding) ([]Finding, error) {
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			findings:  &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	out := applyIgnores(pkg, analyzers, raw)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// Run loads the packages matching patterns (resolved in dir) and runs the
// analyzers over every package in the main module. A whole-module analyzer
// always sees the enclosing module and its bench/ module, but only its
// findings in the matched packages are returned.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var moduleFindings []Finding
	var root, bench []*Package
	for _, a := range analyzers {
		if a.RunModule == nil || len(pkgs) == 0 {
			continue
		}
		if root == nil {
			if root, bench, err = loadModule(pkgs[0].ModuleDir); err != nil {
				return nil, err
			}
		}
		// Load type-checks every package it returns in one file set.
		pass := &Pass{Analyzer: a, Fset: root[0].Fset, Packages: root, Bench: bench, findings: &moduleFindings}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	byDir := map[string][]Finding{}
	for _, f := range moduleFindings {
		dir := filepath.Dir(f.Pos.Filename)
		byDir[dir] = append(byDir[dir], f)
	}
	var out []Finding
	for _, pkg := range pkgs {
		fs, err := runPackage(pkg, analyzers, byDir[pkg.Dir])
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isByteSliceSlice reports whether t is [][]byte.
func isByteSliceSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isByteSlice(s.Elem())
}

// inspectStack walks root like ast.Inspect but also hands f the stack of
// enclosing nodes (outermost first, excluding n itself).
func inspectStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			// Subtree pruned: ast.Inspect sends no nil pop for it, so
			// nothing is pushed either.
			return false
		}
		stack = append(stack, n)
		return true
	})
}
