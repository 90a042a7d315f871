package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles fpisa-vet into a temp dir and returns the binary path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fpisa-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStandaloneFindings runs the tool against a fixture tree with a known
// violation and checks the finding and exit status surface.
func TestStandaloneFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module vetfixture\n\ngo 1.23\n")
	write("fixture.go", `package vetfixture

func DecodeThing(pkt []byte) byte {
	return pkt[0]
}
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on findings, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "[wirebounds]") {
		t.Fatalf("expected a wirebounds finding, got:\n%s", out.String())
	}
}
