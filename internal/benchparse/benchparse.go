// Package benchparse parses `go test -bench` output and compares two runs
// for regressions. It is the engine behind cmd/fpisa-benchstat, which CI
// uses to gate pull requests on benchmark regressions.
//
// The parser understands the standard benchmark line format
//
//	BenchmarkName/sub-8   1000  1234 ns/op  56 B/op  7 allocs/op  8.9 pkts/s
//
// Repeated lines for one benchmark (from -count N) become samples of the
// same entry; the GOMAXPROCS "-8" suffix is stripped so runs from hosts
// with different core counts still compare.
package benchparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's aggregated samples.
type Benchmark struct {
	// Name is the benchmark name with the GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkShardedSwitch/4shard".
	Name string
	// Runs is the number of samples (the -count).
	Runs int
	// Metrics holds the mean of every reported unit (ns/op, B/op,
	// allocs/op, pkts/s, ...) keyed by unit.
	Metrics map[string]float64
}

// Report is a whole `go test -bench` run, sorted by benchmark name.
type Report struct {
	Benchmarks []*Benchmark
}

// benchLine matches "BenchmarkX/sub-8  <iters>  <value> <unit> ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.+)$`)

// maxprocSuffix strips the trailing "-N" GOMAXPROCS marker.
var maxprocSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` output.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	byName := map[string]*Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := maxprocSuffix.ReplaceAllString(m[1], "")
		b := byName[name]
		if b == nil {
			b = &Benchmark{Name: name, Metrics: map[string]float64{}}
			byName[name] = b
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
		if err := b.addSamples(strings.Fields(m[3])); err != nil {
			return nil, fmt.Errorf("benchparse: %q: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, b := range rep.Benchmarks {
		// The samples were summed; publish means.
		for unit, sum := range b.Metrics {
			b.Metrics[unit] = sum / float64(b.Runs)
		}
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })
	return rep, nil
}

// addSamples consumes the "<value> <unit>" pairs after the iteration count.
func (b *Benchmark) addSamples(fields []string) error {
	if len(fields)%2 != 0 {
		return fmt.Errorf("odd value/unit fields %v", fields)
	}
	b.Runs++
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return fmt.Errorf("value %q: %v", fields[i], err)
		}
		b.Metrics[fields[i+1]] += v
	}
	return nil
}

// Delta is one benchmark's old-vs-new comparison for one metric.
type Delta struct {
	Name     string
	Old, New float64 // mean of the compared metric
	// Ratio is (new-old)/old: positive = slower/costlier.
	Ratio float64
}

// Regression reports whether the delta exceeds threshold (e.g. 0.15 for
// +15%).
func (d Delta) Regression(threshold float64) bool { return d.Ratio > threshold }

// CompareMetric matches benchmarks by name across two reports and compares
// the mean of one metric unit — "ns/op", "allocs/op", "syscalls/op", any
// custom b.ReportMetric unit — keeping those whose name matches pattern
// (nil = all). Benchmarks present in only one report are skipped (a
// brand-new benchmark has no baseline to regress against), as are pairs
// where either side never reported the metric: a printed `0 allocs/op` is
// present, a unit the benchmark never printed is not. A reported zero is a
// value like any other: 0 → 0 is flat, and 0 → N > 0 is an infinite ratio
// that fails every threshold — a zero-allocation baseline is exactly the
// one a gate must hold.
func CompareMetric(baseline, candidate *Report, pattern *regexp.Regexp, metric string) []Delta {
	oldBy := map[string]*Benchmark{}
	for _, b := range baseline.Benchmarks {
		oldBy[b.Name] = b
	}
	var ds []Delta
	for _, nb := range candidate.Benchmarks {
		if pattern != nil && !pattern.MatchString(nb.Name) {
			continue
		}
		ob := oldBy[nb.Name]
		if ob == nil {
			continue
		}
		ov, oldOK := ob.Metrics[metric]
		nv, newOK := nb.Metrics[metric]
		if !oldOK || !newOK {
			continue
		}
		d := Delta{Name: nb.Name, Old: ov, New: nv}
		switch {
		case ov != 0:
			d.Ratio = (nv - ov) / ov
		case nv > 0:
			d.Ratio = math.Inf(1)
		}
		ds = append(ds, d)
	}
	return ds
}
