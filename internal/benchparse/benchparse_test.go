package benchparse

import (
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: fpisa
cpu: AMD EPYC 7B13
BenchmarkShardedSwitch/1shard-8         	  100000	     10000 ns/op	    100000 pkts/s
BenchmarkShardedSwitch/1shard-8         	  100000	     12000 ns/op	     90000 pkts/s
BenchmarkShardedSwitch/4shard-8         	  400000	      3000 ns/op	    400000 pkts/s
BenchmarkCoreAdd/FPISA-A-8              	 2000000	       500 ns/op
BenchmarkQuantize-8                     	   50000	     20000 ns/op	     128 B/op	       2 allocs/op
PASS
ok  	fpisa	12.3s
`

func parse(t *testing.T, s string) *Report {
	t.Helper()
	rep, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParse(t *testing.T) {
	rep := parse(t, sample)
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	byName := map[string]*Benchmark{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	one := byName["BenchmarkShardedSwitch/1shard"]
	if one == nil || one.Runs != 2 {
		t.Fatalf("1shard: %+v", one)
	}
	if one.Metrics["ns/op"] != 11000 || one.Metrics["pkts/s"] != 95000 {
		t.Fatalf("1shard means: %v", one.Metrics)
	}
	// The -8 GOMAXPROCS suffix is stripped, but "FPISA-A" inside a
	// subtest name survives.
	if byName["BenchmarkCoreAdd/FPISA-A"] == nil {
		t.Fatalf("sub-benchmark name mangled: %v", byName)
	}
	q := byName["BenchmarkQuantize"]
	if q.Metrics["B/op"] != 128 || q.Metrics["allocs/op"] != 2 {
		t.Fatalf("quantize metrics: %v", q.Metrics)
	}
}

func TestParseTolteratesNoise(t *testing.T) {
	rep := parse(t, "random prose\nBenchmarkX-4   10   5 ns/op\n--- BENCH: ...\n")
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkX" {
		t.Fatalf("%+v", rep.Benchmarks)
	}
}

func TestCompareAndGate(t *testing.T) {
	oldRep := parse(t, `
BenchmarkShardedSwitch/1shard-8   100   1000 ns/op
BenchmarkShardedSwitch/4shard-8   100    250 ns/op
BenchmarkOther-8                  100    100 ns/op
`)
	newRep := parse(t, `
BenchmarkShardedSwitch/1shard-16  100   1100 ns/op
BenchmarkShardedSwitch/4shard-16  100    300 ns/op
BenchmarkOther-16                 100    500 ns/op
BenchmarkBrandNew-16              100      1 ns/op
`)
	gate := regexp.MustCompile(`^BenchmarkShardedSwitch`)
	ds := CompareMetric(oldRep, newRep, gate, "ns/op")
	if len(ds) != 2 {
		t.Fatalf("deltas: %+v", ds)
	}
	byName := map[string]Delta{}
	for _, d := range ds {
		byName[d.Name] = d
	}
	// +10%: under a 15% gate. +20%: over it.
	if d := byName["BenchmarkShardedSwitch/1shard"]; d.Regression(0.15) {
		t.Fatalf("+10%% flagged as regression: %+v", d)
	}
	if d := byName["BenchmarkShardedSwitch/4shard"]; !d.Regression(0.15) {
		t.Fatalf("+20%% not flagged: %+v", d)
	}
	// The gate pattern excludes BenchmarkOther's 5x regression.
	if _, ok := byName["BenchmarkOther"]; ok {
		t.Fatal("gate pattern leaked")
	}
	// Unfiltered compare sees it, and skips the baseline-less newcomer.
	all := CompareMetric(oldRep, newRep, nil, "ns/op")
	if len(all) != 3 {
		t.Fatalf("unfiltered deltas: %+v", all)
	}
}

func TestCompareMetric(t *testing.T) {
	oldRep := parse(t, `
BenchmarkUDPFabricThroughput/mmsg-8     100   1000 ns/op   2.0 syscalls/op   10 allocs/op
BenchmarkUDPFabricThroughput/loop-8     100   1000 ns/op   8.0 syscalls/op
BenchmarkFabricThroughput/ring-8        100    500 ns/op
`)
	newRep := parse(t, `
BenchmarkUDPFabricThroughput/mmsg-8     100   1000 ns/op   2.5 syscalls/op   10 allocs/op
BenchmarkUDPFabricThroughput/loop-8     100   1000 ns/op   8.0 syscalls/op
BenchmarkFabricThroughput/ring-8        100    500 ns/op
`)
	ds := CompareMetric(oldRep, newRep, nil, "syscalls/op")
	if len(ds) != 2 {
		t.Fatalf("syscalls/op deltas: %+v", ds)
	}
	byName := map[string]Delta{}
	for _, d := range ds {
		byName[d.Name] = d
	}
	// 2.0 -> 2.5 is +25%: over a 15% gate.
	if d := byName["BenchmarkUDPFabricThroughput/mmsg"]; !d.Regression(0.15) {
		t.Fatalf("+25%% syscalls/op not flagged: %+v", d)
	}
	if d := byName["BenchmarkUDPFabricThroughput/loop"]; d.Regression(0.15) {
		t.Fatalf("flat syscalls/op flagged: %+v", d)
	}
	// Benchmarks that never report the metric are skipped, not zero-div'd.
	if _, ok := byName["BenchmarkFabricThroughput/ring"]; ok {
		t.Fatal("metric-less benchmark compared")
	}
	// allocs/op is only reported by one subbench; the other is skipped.
	if as := CompareMetric(oldRep, newRep, nil, "allocs/op"); len(as) != 1 {
		t.Fatalf("allocs/op deltas: %+v", as)
	}
	// "ns/op" is a unit like any other.
	if ns := CompareMetric(oldRep, newRep, nil, "ns/op"); len(ns) != 3 {
		t.Fatalf("ns/op deltas: %+v", ns)
	}
}

// A reported zero is a baseline, not an absent metric: 0 → N must fail the
// gate, 0 → 0 must pass it, and a side that never printed the unit is still
// skipped.
func TestCompareMetricZeroBaseline(t *testing.T) {
	oldRep := parse(t, `
BenchmarkShardedSwitch/1shard-8    100   1000 ns/op   0 B/op   0 allocs/op
BenchmarkShardedSwitch/2shard-8    100   1000 ns/op   0 B/op   0 allocs/op
BenchmarkPipelinePacket-8          100    900 ns/op   72 B/op  3 allocs/op
BenchmarkCoreAdd-8                 100     40 ns/op
BenchmarkFabricThroughput/ring-8   100    500 ns/op   0 B/op   0 allocs/op
`)
	newRep := parse(t, `
BenchmarkShardedSwitch/1shard-8    100   1000 ns/op   64 B/op  2 allocs/op
BenchmarkShardedSwitch/2shard-8    100   1000 ns/op   0 B/op   0 allocs/op
BenchmarkPipelinePacket-8          100    900 ns/op   0 B/op   0 allocs/op
BenchmarkCoreAdd-8                 100     40 ns/op   0 B/op   0 allocs/op
BenchmarkFabricThroughput/ring-8   100    500 ns/op
`)
	byName := map[string]Delta{}
	for _, d := range CompareMetric(oldRep, newRep, nil, "allocs/op") {
		byName[d.Name] = d
	}
	if len(byName) != 3 {
		t.Fatalf("allocs/op deltas: %+v", byName)
	}
	if d := byName["BenchmarkShardedSwitch/1shard"]; !d.Regression(0.15) || !d.Regression(1e9) || d.Old != 0 || d.New != 2 {
		t.Errorf("0 -> 2 allocs/op not a failing delta: %+v", d)
	}
	if d := byName["BenchmarkShardedSwitch/2shard"]; d.Regression(0) || d.Ratio != 0 {
		t.Errorf("0 -> 0 allocs/op flagged: %+v", d)
	}
	if d := byName["BenchmarkPipelinePacket"]; d.Regression(0.15) || d.Ratio != -1 {
		t.Errorf("3 -> 0 allocs/op: %+v", d)
	}
	// Absent on either side stays skipped: CoreAdd had no -benchmem columns
	// in the baseline, the ring row has none in the candidate.
	for _, name := range []string{"BenchmarkCoreAdd", "BenchmarkFabricThroughput/ring"} {
		if d, ok := byName[name]; ok {
			t.Errorf("metric absent on one side was compared: %+v", d)
		}
	}
}

func TestParseRejectsMangledValues(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX-8  10  abc ns/op\n")); err == nil {
		t.Fatal("mangled value accepted")
	}
}
