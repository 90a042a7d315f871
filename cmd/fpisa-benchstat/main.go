// Command fpisa-benchstat gates CI on benchmark regressions between two
// `go test -bench` outputs (exit status 1 on regression):
//
//	go test -bench ShardedSwitch -benchmem -count 5 -run '^$' | tee bench.txt
//	fpisa-benchstat -old baseline.txt -new bench.txt \
//	    -gate '^BenchmarkShardedSwitch' -threshold 0.15
//
// The gate compares mean ns/op by default; -metric gates any reported
// unit instead (e.g. -metric syscalls/op, -metric allocs/op) — benchmarks
// that do not report the unit are skipped:
//
//	fpisa-benchstat -old baseline.txt -new bench.txt \
//	    -gate '^BenchmarkUDPFabricThroughput' -metric syscalls/op
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"

	"fpisa/internal/benchparse"
)

func main() {
	oldFile := flag.String("old", "", "baseline bench output")
	newFile := flag.String("new", "", "candidate bench output")
	gate := flag.String("gate", "^BenchmarkShardedSwitch", "regexp of benchmarks the regression gate covers")
	threshold := flag.Float64("threshold", 0.15, "mean regression ratio that fails the gate")
	metric := flag.String("metric", "ns/op", "metric unit the gate compares (ns/op, allocs/op, syscalls/op, ...)")
	flag.Parse()

	if *oldFile == "" || *newFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	ok, err := runGate(os.Stdout, *oldFile, *newFile, *gate, *threshold, *metric)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFile(path string) (*benchparse.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchparse.Parse(f)
}

// runGate prints the comparison table to w and reports whether the gate
// holds.
func runGate(w io.Writer, oldPath, newPath, gate string, threshold float64, metric string) (bool, error) {
	pat, err := regexp.Compile(gate)
	if err != nil {
		return false, fmt.Errorf("bad -gate pattern: %v", err)
	}
	oldRep, err := parseFile(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := parseFile(newPath)
	if err != nil {
		return false, err
	}
	ds := benchparse.CompareMetric(oldRep, newRep, pat, metric)
	if len(ds) == 0 {
		// A silent pass on an empty comparison would defeat the gate.
		fmt.Fprintf(w, "benchstat gate: no %q benchmarks reporting %s in common between %s and %s; nothing gated\n",
			gate, metric, oldPath, newPath)
		return true, nil
	}
	ok := true
	fmt.Fprintf(w, "%-45s %14s %14s %8s\n", "benchmark", "old "+metric, "new "+metric, "delta")
	for _, d := range ds {
		verdict := ""
		if d.Regression(threshold) {
			verdict = "  << REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-45s %14.1f %14.1f %+7.1f%%%s\n", d.Name, d.Old, d.New, 100*d.Ratio, verdict)
	}
	if !ok {
		fmt.Fprintf(w, "FAIL: gate %q exceeded the +%.0f%% %s threshold\n", gate, 100*threshold, metric)
	}
	return ok, nil
}
