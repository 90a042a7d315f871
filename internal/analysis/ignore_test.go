package analysis

import (
	"strings"
	"testing"
)

// TestIgnoreDirective exercises the //fpisa:ignore driver path: a
// documented, used directive suppresses its finding; an undocumented,
// unknown, or stale one is itself reported.
func TestIgnoreDirective(t *testing.T) {
	findings, err := Run(testdata("ignoredirective"), []string{"./..."}, []*Analyzer{LockedCall})
	if err != nil {
		t.Fatal(err)
	}

	wantSubstrings := []string{
		// unexplained: the rejected directive and the surviving finding.
		"call to addLocked from unexplained",
		"unexplained suppression",
		// unknown analyzer name: ditto.
		"call to addLocked from unknown",
		"names unknown analyzer nosuchanalyzer",
		// stale directive.
		"stale //fpisa:ignore",
	}
	if len(findings) != len(wantSubstrings) {
		t.Errorf("got %d findings, want %d:", len(findings), len(wantSubstrings))
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
	for _, want := range wantSubstrings {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q", want)
		}
	}
	// The documented, used suppression must not surface at all.
	for _, f := range findings {
		if strings.Contains(f.Message, "from suppressed") {
			t.Errorf("documented suppression leaked: %s", f)
		}
	}
}
