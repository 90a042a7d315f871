package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	PkgPath   string
	Module    string // path of the module the package belongs to
	ModuleDir string // and that module's root directory
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	// TestFiles are the package directory's _test.go files, parsed but not
	// type-checked: analyzers may only match them syntactically.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path, Dir string }
	Error        *struct{ Err string }
	DepOnly      bool
}

// Load resolves patterns with the go tool (run in dir), type-checks every
// matched package of the main module from source, and resolves its imports
// through the compiler export data `go list -export` produces — so the
// loader works offline, against exactly the build the go command performs,
// with no dependency outside the standard library.
//
// CGO is disabled for the listing so every dependency (net, in particular)
// resolves to its pure-Go build, whose export data describes all the types
// the source mentions.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Module,Error,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, p := range targets {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which the loader does not support", p.ImportPath)
		}
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		testFiles, err := parseFiles(fset, p.Dir, append(p.TestGoFiles, p.XTestGoFiles...))
		if err != nil {
			return nil, err
		}
		// Every analyzer relies on a fully populated types.Info.
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		tpkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   p.ImportPath,
			Module:    p.Module.Path,
			ModuleDir: p.Module.Dir,
			Dir:       p.Dir,
			Fset:      fset,
			Files:     files,
			TestFiles: testFiles,
			Types:     tpkg,
			Info:      info,
		})
	}
	return pkgs, nil
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// loadModule loads every package of the module rooted at top and, when
// top holds a bench/ module of its own, every package of that one.
func loadModule(top string) (root, bench []*Package, err error) {
	if root, err = Load(top, "./..."); err != nil {
		return nil, nil, err
	}
	benchDir := filepath.Join(top, "bench")
	if _, err := os.Stat(filepath.Join(benchDir, "go.mod")); err != nil {
		return root, nil, nil
	}
	bench, err = Load(benchDir, "./...")
	return root, bench, err
}
