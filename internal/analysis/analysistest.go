package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// TestingT is the subset of *testing.T the harness needs; taking the
// interface keeps the production package free of a testing import.
type TestingT interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunTest loads the single package in dir (a testdata directory), runs the
// analyzers over it, and matches every finding against `// want "regex"`
// comments in the sources, analysistest-style: each finding must be
// expected by a want comment on its line, and each want comment must be
// matched by a finding.
func RunTest(t TestingT, dir string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, err := loadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	findings, err := RunPackage(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("parsing want comments in %s: %v", dir, err)
	}
	for _, f := range findings {
		key := wantKey{f.Pos.Filename, f.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(f.Message) {
				w.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w.hits == 0 {
				t.Errorf("%s:%d: no finding matched want %q", key.file, key.line, w.re)
			}
		}
	}
}

type wantKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	hits int
}

// wantRE extracts `want "..."` and want-backquote forms from a comment.
var wantRE = regexp.MustCompile("want (\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

func collectWants(pkg *Package) (map[wantKey][]*want, error) {
	wants := map[wantKey][]*want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					var pat string
					if strings.HasPrefix(m[1], "`") {
						pat = strings.Trim(m[1], "`")
					} else {
						var err error
						pat, err = strconv.Unquote(m[1])
						if err != nil {
							return nil, fmt.Errorf("bad want string %s: %v", m[1], err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("bad want regexp %q: %v", pat, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := wantKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants, nil
}

// loadDir loads the one package in dir (a testdata directory) through Load,
// the loader fpisa-vet runs.
func loadDir(dir string) (*Package, error) {
	pkgs, err := Load(dir, ".")
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("%s holds %d packages, want 1", dir, len(pkgs))
	}
	return pkgs[0], nil
}
