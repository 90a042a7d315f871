package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smoke runs one workload at 1/100 size with one trial and returns the
// exit code and the verdict line.
func smoke(t *testing.T, o options) (int, verdict) {
	t.Helper()
	o.seed, o.quick = 7, true
	var stdout, stderr bytes.Buffer
	code := run(o, &stdout, &stderr)
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var v verdict
	if err := json.Unmarshal(lines[len(lines)-1], &v); err != nil {
		t.Fatalf("%s: last line is not a verdict: %v\nstdout: %s\nstderr: %s", o.workload, err, &stdout, &stderr)
	}
	return code, v
}

func checkMetrics(t *testing.T, workload string, v verdict, defs []metricDef) {
	t.Helper()
	if len(v.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d declared", workload, len(v.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := v.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		code, v := smoke(t, options{workload: w.name})
		if code != 0 || !v.Correct || v.Failed != 0 || v.Attempted < 1 {
			t.Errorf("%s: exit %d, verdict %+v", w.name, code, v)
		}
		checkMetrics(t, w.name, v, endToEnd)
		for _, d := range endToEnd {
			if v.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v.Metrics[d.Name].Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
		code, v := smoke(t, options{workload: w.name, trace: true, traceOut: spanFile})
		if code != 0 || !v.Correct || v.Failed != 0 {
			t.Errorf("%s: exit %d, verdict %+v", w.name, code, v)
		}
		checkMetrics(t, w.name, v, perLayer)
		if d := v.Metrics["trace.spans_dropped"].Value; d != 0 {
			t.Errorf("%s: %v spans dropped", w.name, d)
		}
		syscalls := v.Metrics["transport.syscalls_per_elem"].Value
		if w.udp != (syscalls > 0) {
			t.Errorf("%s: transport.syscalls_per_elem = %v", w.name, syscalls)
		}
		checkSpans(t, w.name, spanFile)
	}
}

// checkSpans parses a span file and requires every span to end after it
// starts, to share its parent's operation and to lie inside its parent.
func checkSpans(t *testing.T, workload, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: span %d: %v", workload, len(spans), err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", workload)
	}
	roots := 0
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("%s: span %d %+v ends before it starts", workload, i, s)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		p := spans[s.Parent]
		if s.Op != p.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: span %d %+v is not inside its parent %+v", workload, i, s, p)
		}
	}
	if roots == 0 {
		t.Errorf("%s: no root span", workload)
	}
}

// TestCorruptOutputFails shows that the correctness gate bites: one wrong
// element of a reduced vector, or one wrong drained entry, is a failed
// operation and a non-zero exit.
func TestCorruptOutputFails(t *testing.T) {
	for _, name := range []string{"train-mem-m1", "analytics-mem"} {
		code, v := smoke(t, options{workload: name, corrupt: true})
		if code == 0 || v.Correct || v.Failed != 1 {
			t.Errorf("%s with a corrupted output: exit %d, verdict correct=%v failed=%d of %d",
				name, code, v.Correct, v.Failed, v.Attempted)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(options{workload: "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, &stdout)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metricDef
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d characters), want %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	seen := map[string]bool{}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m != c.want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", c.kind, i, m, c.want[i])
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: name %q (used before: %v) or unit %q breaks the schema", c.kind, m.Name, seen[m.Name], m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			seen[m.Name] = true
		}
	}
}
