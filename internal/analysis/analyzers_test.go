package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testdata(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestLockedCall(t *testing.T) {
	runTest(t, testdata("lockedcall"), LockedCall)
}

func TestMixedAtomic(t *testing.T) {
	runTest(t, testdata("mixedatomic"), MixedAtomic)
}

func TestWireBounds(t *testing.T) {
	runTest(t, testdata("wirebounds"), WireBounds)
}

func TestRetainCap(t *testing.T) {
	runTest(t, testdata("retaincap"), RetainCap)
}

// TestCallerless runs the fixture module: one declaration per rule in
// internal/a, a tool under cmd/, another package's test, and a bench/
// module of its own.
func TestCallerless(t *testing.T) {
	runTest(t, testdata("callerless"), Callerless)
}

// TestCallerlessBenchOnly checks that what only the fixture's bench/
// module uses is classed bench-only rather than reported.
func TestCallerlessBenchOnly(t *testing.T) {
	root, bench, err := loadModule(testdata("callerless"))
	if err != nil {
		t.Fatal(err)
	}
	got := classify(root, bench).benchOnly
	if want := []string{"callerlessfixture/internal/a.BenchOnly"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bench-only class = %v, want %v", got, want)
	}
}

// TestCallerlessBenchOnlyGolden pins the repository's bench-only class:
// the symbols under internal/ that only bench/ uses, and so that an
// ordinary change must keep compiling with the same meaning. A change that
// moves bench/ off one (or onto a new one) edits the golden file with it.
func TestCallerlessBenchOnlyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module and bench/")
	}
	root, bench, err := loadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(classify(root, bench).benchOnly, "\n") + "\n"
	golden := filepath.Join("testdata", "callerless_bench_only.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("bench-only class differs from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("lockedcall,retaincap")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "lockedcall" || as[1].Name != "retaincap" {
		t.Fatalf("ByName returned %v", as)
	}
	if _, err := ByName("nosuchanalyzer"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer name")
	}
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %v, %v", all, err)
	}
}

// TestSuiteCleanOnRepo runs the full suite over the whole module — the
// same gate the CI lint job enforces through cmd/fpisa-vet. Any finding
// here means either a real invariant violation crept in or a false
// positive needs a documented //fpisa:ignore.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, err := Run(filepath.Join("..", ".."), []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
