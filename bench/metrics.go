package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root lists exactly these names, units and directions;
// TestMetricNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics of an untraced run (-trace 0). Every workload
// reports every one. On analytics-mem an "element" is one tuple row and the
// "small op" is an observer drain; on the training workloads an element is
// one gradient value and the small op is a one-window reduce.
var endToEnd = []metricDef{
	{"elems_per_s", "1/s", "higher"},
	{"cpu_ns_per_elem", "ns", "lower"},
	{"small_op_p50_us", "us", "lower"},
	{"small_op_p90_us", "us", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run (-trace 1), one group per module
// of the repository. bench/README.md says which end-to-end metric each is
// expected to move, on which workload.
var perLayer = []metricDef{
	// Wire codec (internal/aggservice Encode*/Decode*).
	{"codec.add_encode_ns", "ns/pkt", "lower"},
	{"codec.add_encode_allocs", "allocs/pkt", "lower"},
	{"codec.result_decode_ns", "ns/pkt", "lower"},
	{"codec.resultrun_decode_ns", "ns/chunk", "lower"},
	{"codec.tuple_encode_ns_per_tuple", "ns/tuple", "lower"},
	{"codec.tupleack_decode_ns", "ns/pkt", "lower"},
	{"codec.drainreply_decode_ns", "ns/pkt", "lower"},
	// Simulated PISA pipeline (internal/pisa), driven with FPISA ADD packets.
	{"pisa.process_ns_per_pkt", "ns/pkt", "lower"},
	{"pisa.process_allocs_per_pkt", "allocs/pkt", "lower"},
	{"pisa.process_bytes_per_pkt", "B/pkt", "lower"},
	{"pisa.emitted_per_pkt", "count", "lower"},
	{"pisa.recirculated_per_pkt", "count", "lower"},
	{"pisa.runtime_errors", "count", "lower"},
	// Aggregators (internal/core).
	{"core.pipeline_add_ns", "ns/op", "lower"},
	{"core.pipeline_add_allocs", "allocs/op", "lower"},
	{"core.pipeline_readreset_ns", "ns/op", "lower"},
	{"core.accum_add_ns", "ns/op", "lower"},
	{"core.accum_add_allocs", "allocs/op", "lower"},
	{"core.accum_readreset_ns", "ns/op", "lower"},
	{"core.replicate_ns", "ns/op", "lower"},
	// Switch service (internal/aggservice).
	{"aggservice.handlebatch_ns_per_add", "ns/add", "lower"},
	{"aggservice.handlebatch_allocs_per_add", "allocs/add", "lower"},
	{"aggservice.self_ns_per_add", "ns/add", "lower"},
	{"aggservice.replay_ns_per_add", "ns/add", "lower"},
	{"aggservice.tuple_ns_per_tuple.agg", "ns/tuple", "lower"},
	{"aggservice.tuple_ns_per_tuple.topn", "ns/tuple", "lower"},
	{"aggservice.tuple_ns_per_tuple.telemetry", "ns/tuple", "lower"},
	{"aggservice.drain_ns.groups", "ns/op", "lower"},
	{"aggservice.drain_ns.heavyhitters", "ns/op", "lower"},
	{"aggservice.drain_ns.histogram", "ns/op", "lower"},
	{"aggservice.adds", "count", "lower"},
	{"aggservice.retransmits", "count", "lower"},
	{"aggservice.completions", "count", "higher"},
	{"aggservice.sched_defers", "count", "lower"},
	{"aggservice.cache_hits", "count", "lower"},
	{"aggservice.coalesced_frac", "frac", "higher"},
	{"aggservice.rejects_total", "count", "lower"},
	// Fabrics (internal/transport).
	{"transport.mem_ns_per_pkt", "ns/pkt", "lower"},
	{"transport.mem_allocs_per_pkt", "allocs/pkt", "lower"},
	{"transport.udp_loop_ns_per_pkt", "ns/pkt", "lower"},
	{"transport.udp_mmsg_ns_per_pkt", "ns/pkt", "lower"},
	{"transport.udp_allocs_per_pkt", "allocs/pkt", "lower"},
	{"transport.syscalls_per_elem", "1/elem", "lower"},
	{"transport.dgrams_per_syscall", "count", "higher"},
	{"transport.send_errors", "count", "lower"},
	// Host-side clients (aggservice.Worker, aggservice.TupleClient).
	{"worker.loop_ns_per_chunk", "ns/chunk", "lower"},
	{"worker.sent_per_chunk", "ratio", "lower"},
	{"worker.adds_per_datagram", "ratio", "higher"},
	{"worker.batch_shrinks", "count", "lower"},
	{"worker.backpressure_acks", "count", "lower"},
	{"worker.final_batch", "count", "higher"},
	{"tuple.retransmits", "count", "lower"},
	{"tuple.backpressure_acks", "count", "lower"},
	// Aggregation tree (internal/aggservice/tree.go).
	{"tree.hop_ns_per_chunk", "ns/chunk", "lower"},
	{"tree.uplink_retransmits", "count", "lower"},
	{"tree.uplink_pending_end", "count", "lower"},
	// Whole process over one untraced trial.
	{"process.allocs_per_elem", "allocs/elem", "lower"},
	{"process.alloc_bytes_per_elem", "B/elem", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.peak_rss_mib", "MiB", "lower"},
	// Spans of the traced trial.
	{"trace.reduce_wall_ns_per_chunk", "ns/chunk", "lower"},
	{"trace.send_self_ns_per_chunk", "ns/chunk", "lower"},
	{"trace.handlebatch_busy_ns_per_chunk", "ns/chunk", "lower"},
	{"trace.spine_busy_ns_per_chunk", "ns/chunk", "lower"},
	{"trace.recv_wait_ns_per_chunk", "ns/chunk", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.spans_dropped", "count", "lower"},
	// Probe costs times the traced trial's counts, against measured CPU.
	{"ledger.cpu_ns_per_chunk", "ns/chunk", "lower"},
	{"ledger.codec_ns_per_chunk", "ns/chunk", "lower"},
	{"ledger.pisa_ns_per_chunk", "ns/chunk", "lower"},
	{"ledger.core_ns_per_chunk", "ns/chunk", "lower"},
	{"ledger.aggservice_ns_per_chunk", "ns/chunk", "lower"},
	{"ledger.transport_ns_per_chunk", "ns/chunk", "lower"},
	{"ledger.worker_other_ns_per_chunk", "ns/chunk", "lower"},
	{"ledger.unexplained_frac", "frac", "lower"},
}

// sample is one reported metric: the median of its observations with their
// count and range beside it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// results maps metric name to its sample.
type results map[string]sample

// set records a declared metric as the median of its observations; a single
// observation is its own median.
func (r results) set(name string, obs ...float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name != name {
				continue
			}
			s := sample{Unit: d.Unit, N: len(obs)}
			if len(obs) > 0 {
				sorted := slices.Sorted(slices.Values(obs))
				s.Value, s.Min, s.Max = quantile(sorted, 0.5), sorted[0], sorted[len(sorted)-1]
			}
			r[name] = s
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// quantile reads the q-quantile of an ascending slice by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// cpuTime is the process's user+system CPU time so far, GC and fabric
// goroutines included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// opCost is one probe's cost per operation.
type opCost struct{ ns, allocs, bytes float64 }
