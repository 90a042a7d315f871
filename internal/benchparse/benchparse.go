// Package benchparse parses `go test -bench` output into a structured
// summary and compares two runs for regressions. It is the engine behind
// cmd/fpisa-benchstat, which CI uses to publish BENCH_<date>.json
// trajectory files and to gate pull requests on benchmark regressions.
//
// The parser understands the standard benchmark line format
//
//	BenchmarkName/sub-8   1000  1234 ns/op  56 B/op  7 allocs/op  8.9 pkts/s
//
// plus the goos/goarch/pkg/cpu preamble. Repeated lines for one benchmark
// (from -count N) become samples of the same entry; the GOMAXPROCS "-8"
// suffix is stripped so runs from hosts with different core counts still
// compare.
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
	Name string `json:"name"`
	// Runs is the number of samples (the -count).
	Runs int `json:"runs"`
	// NsPerOp summarizes the primary metric.
	NsPerOp Summary `json:"ns_per_op"`
	// Metrics holds the mean of every secondary unit (B/op, allocs/op,
	// pkts/s, ...) keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	nsSamples []float64
}

// Summary condenses one metric's samples.
type Summary struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Report is a whole `go test -bench` run.
type Report struct {
	// Date is the run date, YYYY-MM-DD (caller-provided).
	Date string `json:"date,omitempty"`
	// Goos, Goarch and CPU are taken from the output preamble.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Benchmarks is sorted by name.
	Benchmarks []*Benchmark `json:"benchmarks"`
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
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
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
		b.finish()
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
		unit := fields[i+1]
		if unit == "ns/op" {
			b.nsSamples = append(b.nsSamples, v)
			continue
		}
		// Secondary units accumulate; finish() divides by Runs.
		b.Metrics[unit] += v
	}
	return nil
}

// finish converts accumulated sums into the published summary.
func (b *Benchmark) finish() {
	if len(b.nsSamples) > 0 {
		s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
		var sum float64
		for _, v := range b.nsSamples {
			sum += v
			s.Min = math.Min(s.Min, v)
			s.Max = math.Max(s.Max, v)
		}
		s.Mean = sum / float64(len(b.nsSamples))
		b.NsPerOp = s
	}
	for unit, sum := range b.Metrics {
		b.Metrics[unit] = sum / float64(b.Runs)
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
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

// Compare matches benchmarks by name across two reports and compares mean
// ns/op, keeping those whose name matches pattern (nil = all). Benchmarks
// present in only one report are skipped: a brand-new benchmark has no
// baseline to regress against.
func Compare(baseline, candidate *Report, pattern *regexp.Regexp) []Delta {
	return CompareMetric(baseline, candidate, pattern, "ns/op")
}

// metricValue extracts one benchmark's mean for metric and whether the
// benchmark reported it at all: "ns/op" reads the primary summary, anything
// else the secondary-unit table. A reported 0 (a `0 allocs/op` column) is
// present; a unit the benchmark never printed is not.
func (b *Benchmark) metricValue(metric string) (v float64, ok bool) {
	if metric == "ns/op" {
		return b.NsPerOp.Mean, b.NsPerOp.Mean != 0
	}
	v, ok = b.Metrics[metric]
	return v, ok
}

// CompareMetric is Compare over an arbitrary metric unit — "ns/op",
// "allocs/op", "syscalls/op", any custom b.ReportMetric unit. Benchmark
// pairs where either side never reported the metric are skipped, so gating
// a metric only constrains the benchmarks that actually report it. A
// reported zero is a value like any other: 0 → 0 is flat, and 0 → N > 0
// is an infinite ratio that fails every threshold — a zero-allocation
// baseline is exactly the one a gate must hold.
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
		ov, oldOK := ob.metricValue(metric)
		nv, newOK := nb.metricValue(metric)
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
