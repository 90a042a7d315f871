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
	"slices"
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
	Types     *types.Package
	Info      *types.Info
	// TestFiles are the package directory's _test.go files, its own tests
	// type-checked together with Files and its external tests against the
	// test build of what they import; testInfo holds what both checks
	// resolved.
	TestFiles []*ast.File
	testInfo  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	ForTest      string // set on a package built for the named package's test
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
// with no dependency outside the standard library. Each package's tests are
// type-checked too: its own with its files, its external tests against the
// export data of its test build (`go list -test`, the packages whose
// ForTest names it), where an import means the package with its tests.
//
// CGO is disabled for the listing so every dependency (net, in particular)
// resolves to its pure-Go build, whose export data describes all the types
// the source mentions.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,ForTest,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Module,Error,DepOnly",
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
	testExports := map[string]map[string]string{} // by ForTest, then import path
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
		switch {
		case p.ForTest != "":
			// "path [for.test]": path as built into for's test binary.
			if testExports[p.ForTest] == nil {
				testExports[p.ForTest] = map[string]string{}
			}
			path, _, _ := strings.Cut(p.ImportPath, " ")
			testExports[p.ForTest][path] = p.Export
		case strings.HasSuffix(p.ImportPath, ".test"):
			// A test binary's generated main package.
		default:
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Module != nil && !p.DepOnly {
				q := p
				targets = append(targets, &q)
			}
		}
	}

	fset := token.NewFileSet()
	// importerOf returns an importer of the packages in exports, those in
	// override first.
	importerOf := func(override map[string]string) types.Importer {
		return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := override[path]
			if !ok {
				f, ok = exports[path]
			}
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
	}
	imp := importerOf(nil)

	var pkgs []*Package
	for _, p := range targets {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which the loader does not support", p.ImportPath)
		}
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		tests, err := parseFiles(fset, p.Dir, p.TestGoFiles)
		if err != nil {
			return nil, err
		}
		xtests, err := parseFiles(fset, p.Dir, p.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		info := newInfo()
		tpkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
		}
		testInfo := newInfo()
		if len(tests) > 0 {
			if _, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, slices.Concat(files, tests), testInfo); err != nil {
				return nil, fmt.Errorf("analysis: type-checking %s's tests: %w", p.ImportPath, err)
			}
		}
		if len(xtests) > 0 {
			if _, err := (&types.Config{Importer: importerOf(testExports[p.ImportPath])}).Check(p.ImportPath+"_test", fset, xtests, testInfo); err != nil {
				return nil, fmt.Errorf("analysis: type-checking %s's external tests: %w", p.ImportPath, err)
			}
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   p.ImportPath,
			Module:    p.Module.Path,
			ModuleDir: p.Module.Dir,
			Dir:       p.Dir,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			Info:      info,
			TestFiles: append(tests, xtests...),
			testInfo:  testInfo,
		})
	}
	return pkgs, nil
}

// newInfo returns an empty, fully populated types.Info, which every
// analyzer relies on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
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
