package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunGate(t *testing.T) {
	const baseline = `
BenchmarkShardedSwitch/1shard-8   100   1000 ns/op   0 B/op   0 allocs/op
BenchmarkShardedSwitch/4shard-8   100   1000 ns/op   0 B/op   0 allocs/op
BenchmarkFabricThroughput/ring-8  100    500 ns/op
`
	for _, tc := range []struct {
		name, candidate, gate, metric string
		ok                            bool
		prints                        string
	}{
		{"+20% ns/op fails a 0.15 gate", `
BenchmarkShardedSwitch/1shard-8   100   1200 ns/op   0 B/op   0 allocs/op
BenchmarkShardedSwitch/4shard-8   100   1000 ns/op   0 B/op   0 allocs/op
`, "^BenchmarkShardedSwitch", "ns/op", false, "1shard  1000.0 1200.0 +20.0% << REGRESSION"},
		{"+10% ns/op passes it", `
BenchmarkShardedSwitch/1shard-8   100   1100 ns/op   0 B/op   0 allocs/op
`, "^BenchmarkShardedSwitch", "ns/op", true, "+10.0%"},
		{"an improvement passes", `
BenchmarkShardedSwitch/1shard-8   100    500 ns/op   0 B/op   0 allocs/op
`, "^BenchmarkShardedSwitch", "ns/op", true, "-50.0%"},
		{"0 -> 2 allocs/op fails", `
BenchmarkShardedSwitch/1shard-8   100   1000 ns/op   64 B/op  2 allocs/op
BenchmarkShardedSwitch/4shard-8   100   1000 ns/op   0 B/op   0 allocs/op
`, "^BenchmarkShardedSwitch", "allocs/op", false, "+Inf% << REGRESSION"},
		{"a regression outside the gate pattern passes", `
BenchmarkFabricThroughput/ring-8  100   5000 ns/op
BenchmarkShardedSwitch/1shard-8   100   1000 ns/op   0 B/op   0 allocs/op
`, "^BenchmarkShardedSwitch", "ns/op", true, "+0.0%"},
		{"an empty comparison says so and passes", `
BenchmarkFabricThroughput/ring-8  100    500 ns/op
`, "^BenchmarkFabricThroughput", "allocs/op", true, "nothing gated"},
	} {
		dir := t.TempDir()
		oldPath, newPath := filepath.Join(dir, "old.txt"), filepath.Join(dir, "new.txt")
		if err := os.WriteFile(oldPath, []byte(baseline), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newPath, []byte(tc.candidate), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		ok, err := runGate(&out, oldPath, newPath, tc.gate, 0.15, tc.metric)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.ok {
			t.Errorf("%s: gate passed = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
		// Compare with runs of spaces collapsed: the column widths are not
		// the contract.
		if got := strings.Join(strings.Fields(out.String()), " "); !strings.Contains(got, strings.Join(strings.Fields(tc.prints), " ")) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.prints, out.String())
		}
		if failed := strings.Contains(out.String(), "FAIL:"); failed == tc.ok {
			t.Errorf("%s: FAIL line printed = %v\n%s", tc.name, failed, out.String())
		}
	}

	if _, err := runGate(&strings.Builder{}, "old.txt", "new.txt", "(", 0.15, "ns/op"); err == nil {
		t.Error("a malformed -gate pattern was accepted")
	}
	if _, err := runGate(&strings.Builder{}, filepath.Join(t.TempDir(), "absent.txt"), "new.txt", ".", 0.15, "ns/op"); err == nil {
		t.Error("a missing baseline file was accepted")
	}
}
