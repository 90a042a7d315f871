// Command bench is the repository's end-to-end and per-layer benchmark:
// five workloads over the aggregation switch, each verified against a host
// reference, measured untraced for the end-to-end metrics (-trace 0) and
// with the benchmark's own probes and spans for the per-layer ledger
// (-trace 1). See README.md beside this file and BENCHMARK.json at the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/transport"
)

// options are the command-line settings plus what only the tests set.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	jsonOut  bool

	quick   bool // tests: 1/100 of the work per trial, one trial, the fewest samples
	corrupt bool // tests: damage one output before it is checked
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time per workload")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from probes and a traced trial")
	flag.StringVar(&o.traceOut, "traceout", "", "with -trace 1, write the traced trial's spans to this file as JSON lines")
	flag.BoolVar(&o.jsonOut, "json", false, "print one JSON object with every metric's value, unit, n, min and max plus host facts, in place of the table")
	flag.Parse()
	o.trace = trace != 0
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// verdict is the last line of a workload's output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures the chosen workloads and prints, per workload, every metric
// by name and then the verdict line. It returns the process's exit code:
// 0 only when every operation of every workload succeeded.
func run(o options, stdout, stderr io.Writer) int {
	// The reference host has two cores; pinning the scheduler to two keeps
	// a run on a larger machine comparable.
	runtime.GOMAXPROCS(lanes)
	var todo []*workload
	if o.workload == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	code := 0
	for _, w := range todo {
		sized := *w
		if o.quick {
			sized = w.scaled(100)
		}
		measureWorkload := untraced
		defs := endToEnd
		if o.trace {
			measureWorkload, defs = traced, perLayer
		}
		res, note, ops, err := measureWorkload(&sized, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, d := range defs {
			if _, ok := res[d.Name]; !ok {
				fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", w.name, d.Name)
				return 1
			}
		}
		report(stdout, &sized, o, res, note)
		v := verdict{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: map[string]valueOfUnit{}}
		for name, s := range res {
			v.Metrics[name] = valueOfUnit{s.Value, s.Unit}
		}
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if ops.failed > 0 {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", w.name, ops.failed, ops.attempted)
			code = 1
		}
	}
	return code
}

// report prints one workload's metrics as a table, or with -json as one
// object that also carries the host facts.
func report(out io.Writer, w *workload, o options, res results, note string) {
	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	sort.Strings(names)
	if o.jsonOut {
		host := map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"udp_backend": udpBackend(), "loopback": w.udp, "seed": o.seed,
			"lanes": lanes, "trial_elems": w.elems, "note": note,
		}
		line, _ := json.Marshal(map[string]any{w.name: res, "host": host})
		fmt.Fprintf(out, "%s\n", line)
		return
	}
	fmt.Fprintf(out, "# %s: seed %d, %d elements per trial and lane, %d lanes (closed loop), GOMAXPROCS %d of %d CPUs, %s\n",
		w.name, o.seed, w.elems, lanes, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if w.udp {
		fmt.Fprintf(out, "# UDP over the host's loopback interface (%s), not a real link\n", udpBackend())
	}
	fmt.Fprintf(out, "# switch time is host time of the software model, not Tofino line rate\n")
	if note != "" {
		fmt.Fprintf(out, "# %s\n", note)
	}
	for _, name := range names {
		s := res[name]
		fmt.Fprintf(out, "%-44s %16.6g %-11s n=%-5d min=%.6g max=%.6g\n", name, s.Value, s.Unit, s.N, s.Min, s.Max)
	}
}

// udpBackend names the datagram I/O backend the default UDP fabric
// resolves to on this host.
var udpBackend = sync.OnceValue(func() string {
	u, err := transport.NewUDP(1, func(int, [][]byte, *transport.DeliveryList) {})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	defer u.Close()
	return u.Backend()
})

// trialOut is one trial: the whole workload once, on a fresh switch.
type trialOut struct {
	wall, cpu time.Duration
	ops       opCount
	drainsUS  []float64
}

// trial builds a fresh env and runs the workload's n-element reduce (or
// its whole tuple stream). A non-nil counts receives the layers' counters
// and the process's allocation numbers, read before the switch closes.
func (w *workload) trial(in input, n int, tr *tracer, corrupt bool, counts map[string]float64) (trialOut, error) {
	e, err := w.build(tr)
	if err != nil {
		return trialOut{}, err
	}
	defer e.close()
	// Start every trial from a collected heap, so where a GC cycle falls
	// does not depend on what the previous trial left behind.
	runtime.GC()
	var m0, m1 runtime.MemStats
	if counts != nil {
		runtime.ReadMemStats(&m0)
	}
	var out trialOut
	var workers []*aggservice.Worker
	var clients []*aggservice.TupleClient
	units := float64(n)
	if w.analytics {
		run := e.stream(in.analytics, corrupt)
		out = trialOut{run.wall, run.cpu, run.ops, run.drainsUS}
		units, clients = w.elements(), run.clients[:]
	} else {
		run := e.reduce(in.train, n, corrupt)
		out = trialOut{run.wall, run.cpu, run.ops, nil}
		workers = run.workers[:]
	}
	if counts == nil {
		return out, nil
	}
	runtime.ReadMemStats(&m1)
	counts["process.allocs_per_elem"] = float64(m1.Mallocs-m0.Mallocs) / units
	counts["process.alloc_bytes_per_elem"] = float64(m1.TotalAlloc-m0.TotalAlloc) / units
	counts["process.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	for _, c := range clients {
		counts["tuple.retransmits"] += float64(c.Retransmits)
		counts["tuple.backpressure_acks"] += float64(c.BackpressureAcks)
	}
	if len(workers) > 0 {
		var sent, dgrams float64
		final := workers[0].LastBatch
		for _, wk := range workers {
			sent += float64(wk.SentPackets)
			dgrams += float64(wk.SentDatagrams)
			counts["worker.batch_shrinks"] += float64(wk.BatchShrinks)
			counts["worker.backpressure_acks"] += float64(wk.BackpressureAcks)
			final = min(final, wk.LastBatch)
		}
		counts["worker.sent_per_chunk"] = sent / float64(lanes*n/w.modules)
		counts["worker.adds_per_datagram"] = sent / dgrams
		counts["worker.final_batch"] = float64(final)
	}
	e.readCounters(counts, units)
	return out, nil
}

// readCounters adds what the switches and the UDP fabric counted.
func (e *env) readCounters(c map[string]float64, elements float64) {
	switches := append([]*aggservice.Switch{}, e.leaves...)
	for _, sw := range []*aggservice.Switch{e.sw, e.spine} {
		if sw != nil {
			switches = append(switches, sw)
		}
	}
	var completions, coalesced float64
	for _, sw := range switches {
		for job := 0; job < sw.Jobs(); job++ {
			st, ok := sw.JobStats(job)
			if !ok {
				continue
			}
			c["aggservice.adds"] += float64(st.Adds)
			c["aggservice.retransmits"] += float64(st.Retransmits)
			c["aggservice.sched_defers"] += float64(st.SchedDefers)
			c["aggservice.cache_hits"] += float64(st.CacheHits)
			completions += float64(st.Completions)
			coalesced += float64(st.Coalesced)
		}
		r := sw.Rejects()
		c["aggservice.rejects_total"] += float64(r.Legacy + r.Malformed + r.BadJob + r.CrossJob + r.Draining + r.Backpressure + r.Stale + r.BadClass)
	}
	c["aggservice.completions"] = completions
	if completions > 0 {
		c["aggservice.coalesced_frac"] = coalesced / completions
	}
	for _, leaf := range e.leaves {
		c["tree.uplink_retransmits"] += float64(leaf.UplinkRetransmits(0))
		c["tree.uplink_pending_end"] += float64(leaf.UplinkPending(0))
	}
	if e.udp != nil {
		st := e.udp.SyscallStats()
		c["transport.syscalls_per_elem"] = float64(st.Syscalls()) / elements
		c["transport.dgrams_per_syscall"] = st.DatagramsPerSyscall()
		c["transport.send_errors"] = float64(st.SendErrors)
	}
}

// untraced measures the end-to-end metrics. After one discarded warm-up
// round it repeats a round until the time budget is spent: five set-ups,
// one fixed-work trial, the host-speed kernel (hostspeed.go), then
// one-window reduces (the small operation) for a third of the trial's time.
// Analytics trials time their own small operation, the drain. A round
// yields one observation of every metric, corrected by the host's speed in
// that round; the metric is the median over the rounds. The note returned
// says what the correction was.
func untraced(w *workload, o options) (results, string, opCount, error) {
	res := results{}
	var ops opCount
	setups, smalls := 5, 100
	if o.quick {
		setups, smalls = 1, 10
	}
	window := pool * w.modules
	budget := time.Duration(o.seconds * float64(time.Second))
	kernel := newHostKernel()

	var in input
	var perS, cpuNS, smallP50, smallP90, setupS, speeds []float64
	round := -1 // the warm-up round, which the tests skip
	if o.quick {
		round = 0
	}
	for start := time.Now(); round < 1 || time.Since(start) < budget; round++ {
		var builds []float64
		for len(builds) < setups {
			t0 := time.Now()
			in = w.generate(o.seed)
			e, err := w.build(nil)
			if err != nil {
				return nil, "", ops, err
			}
			builds = append(builds, time.Since(t0).Seconds())
			e.close()
		}
		t0 := time.Now()
		t, err := w.trial(in, w.elems, nil, o.corrupt, nil)
		if err != nil {
			return nil, "", ops, err
		}
		ops.add(t.ops)
		if round < 0 {
			start = time.Now() // the clock starts after the warm-up
			continue
		}
		share := time.Since(t0) / 3
		speed := kernel.speed()
		smallUS := t.drainsUS
		if !w.analytics {
			for t0 = time.Now(); len(smallUS) < smalls || !o.quick && time.Since(t0) < share; {
				small, err := w.trial(in, window, nil, false, nil)
				if err != nil {
					return nil, "", ops, err
				}
				ops.add(small.ops)
				smallUS = append(smallUS, float64(small.wall.Nanoseconds())/1e3)
			}
		}
		slices.Sort(smallUS)
		slices.Sort(builds)
		// Rates are divided by the host's speed and times multiplied by it.
		perS = append(perS, w.elements()/t.wall.Seconds()/speed)
		cpuNS = append(cpuNS, float64(t.cpu.Nanoseconds())/w.elements()*speed)
		smallP50 = append(smallP50, quantile(smallUS, 0.5)*speed)
		smallP90 = append(smallP90, quantile(smallUS, 0.9)*speed)
		setupS = append(setupS, quantile(builds, 0.5)*speed)
		speeds = append(speeds, speed)
		if o.quick {
			break
		}
	}
	res.set("elems_per_s", perS...)
	res.set("cpu_ns_per_elem", cpuNS...)
	res.set("small_op_p50_us", smallP50...)
	res.set("small_op_p90_us", smallP90...)
	res.set("setup_s", setupS...)
	slices.Sort(speeds)
	note := fmt.Sprintf("values are as on the quiet reference host: host speed over the %d rounds was %.3f of it (median; %.3f to %.3f), so the raw median of elems_per_s was about %.6g",
		len(speeds), quantile(speeds, 0.5), speeds[0], speeds[len(speeds)-1], res["elems_per_s"].Value*quantile(speeds, 0.5))
	return res, note, ops, nil
}

// traced measures the per-layer metrics: the probes, then pairs of an
// untraced and a traced trial until 0.6 of the time budget is spent.
// Counters and process numbers come from the untraced trial of each pair,
// spans from the traced one, and the ledger sets the probes' costs against
// the untraced trial's CPU time.
func traced(w *workload, o options) (results, string, opCount, error) {
	res := results{}
	var ops opCount
	in := w.generate(o.seed)
	p, err := runProbes(w, o.seed, o.quick)
	if err != nil {
		return nil, "", ops, err
	}

	flat := *findWorkload("train-mem-m1")
	flat.elems = w.elems
	var flatIn input
	if w.tree {
		flatIn = flat.generate(o.seed)
	}
	deadline := time.Now().Add(time.Duration(o.seconds * 0.6 * float64(time.Second)))
	obs := map[string][]float64{}
	var spans []span
	for pair := 0; pair == 0 || !o.quick && time.Now().Before(deadline); pair++ {
		counts := map[string]float64{}
		plain, err := w.trial(in, w.elems, nil, false, counts)
		if err != nil {
			return nil, "", ops, err
		}
		ops.add(plain.ops)
		// A span per SendBatch, RecvBatch and HandleBatch of every chunk
		// batch, with headroom for retransmit rounds.
		tr := newTracer(int(6*w.chunks()/probeBatch) + 1<<16)
		withSpans, err := w.trial(in, w.elems, tr, o.corrupt, nil)
		if err != nil {
			return nil, "", ops, err
		}
		ops.add(withSpans.ops)
		spans = tr.recorded()

		for name, v := range counts {
			obs[name] = append(obs[name], v)
		}
		chunks := w.chunks()
		self := selfTimes(spans)
		var rootWall float64
		for _, s := range spans {
			if s.Parent < 0 && s.Name == spanReduce {
				rootWall = max(rootWall, float64(s.End-s.Start))
			}
		}
		if w.analytics {
			rootWall = float64(withSpans.wall.Nanoseconds())
		}
		add := func(name string, v float64) { obs[name] = append(obs[name], v) }
		add("trace.reduce_wall_ns_per_chunk", rootWall/chunks)
		add("trace.send_self_ns_per_chunk", self[spanSendBatch]/chunks)
		add("trace.handlebatch_busy_ns_per_chunk", self[spanHandleBatch]/chunks)
		add("trace.spine_busy_ns_per_chunk", self[spanSpineBatch]/chunks)
		add("trace.recv_wait_ns_per_chunk", self[spanRecvBatch]/chunks)
		add("trace.overhead_frac", withSpans.wall.Seconds()/plain.wall.Seconds()-1)
		add("trace.spans_dropped", float64(tr.dropped.Load()))
		add("ledger.cpu_ns_per_chunk", float64(plain.cpu.Nanoseconds())/chunks)
		if w.tree {
			// The same packets through one switch instead of two levels:
			// the difference per chunk is what the tree hop costs.
			ft, err := flat.trial(flatIn, flat.elems, nil, false, nil)
			if err != nil {
				return nil, "", ops, err
			}
			ops.add(ft.ops)
			add("tree.hop_ns_per_chunk", float64((plain.wall-ft.wall).Nanoseconds())/chunks)
		}
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			return nil, "", ops, err
		}
	}

	for _, d := range perLayer {
		res.set(d.Name, obs[d.Name]...)
	}
	// The ledger's denominator is the fastest trial's CPU time, as the
	// probes keep their fastest repetition: both are the quiet host's cost.
	res.set("ledger.cpu_ns_per_chunk", slices.Min(obs["ledger.cpu_ns_per_chunk"]))
	res.set("codec.add_encode_ns", p.addEncode.ns)
	res.set("codec.add_encode_allocs", p.addEncode.allocs)
	res.set("codec.result_decode_ns", p.resultDecode.ns)
	res.set("codec.resultrun_decode_ns", p.runDecodePerChunk.ns)
	res.set("codec.tuple_encode_ns_per_tuple", p.tupleEncodePerRow.ns)
	res.set("codec.tupleack_decode_ns", p.ackDecode.ns)
	res.set("codec.drainreply_decode_ns", p.replyDecode.ns)
	res.set("pisa.process_ns_per_pkt", p.pisa.ns)
	res.set("pisa.process_allocs_per_pkt", p.pisa.allocs)
	res.set("pisa.process_bytes_per_pkt", p.pisa.bytes)
	res.set("pisa.emitted_per_pkt", p.pisaEmitted)
	res.set("pisa.recirculated_per_pkt", p.pisaRecirc)
	res.set("pisa.runtime_errors", p.pisaRuntimeEr)
	res.set("core.pipeline_add_ns", p.pipeAdd.ns)
	res.set("core.pipeline_add_allocs", p.pipeAdd.allocs)
	res.set("core.pipeline_readreset_ns", p.pipeReadReset.ns)
	res.set("core.accum_add_ns", p.accumAdd.ns)
	res.set("core.accum_add_allocs", p.accumAdd.allocs)
	res.set("core.accum_readreset_ns", p.accumReadReset.ns)
	res.set("core.replicate_ns", p.replicate.ns)
	selfPerAdd := p.handleBatchPerAdd.ns - p.switchAdd(w).ns - p.switchReadReset(w).ns/lanes
	res.set("aggservice.handlebatch_ns_per_add", p.handleBatchPerAdd.ns)
	res.set("aggservice.handlebatch_allocs_per_add", p.handleBatchPerAdd.allocs)
	res.set("aggservice.self_ns_per_add", selfPerAdd)
	res.set("aggservice.replay_ns_per_add", p.replayPerAdd.ns)
	res.set("aggservice.tuple_ns_per_tuple.agg", p.tupleAgg.ns)
	res.set("aggservice.tuple_ns_per_tuple.topn", p.tupleTopN.ns)
	res.set("aggservice.tuple_ns_per_tuple.telemetry", p.tupleTelemetry.ns)
	res.set("aggservice.drain_ns.groups", p.drainNS[aggservice.DrainGroups])
	res.set("aggservice.drain_ns.heavyhitters", p.drainNS[aggservice.DrainHeavyHitters])
	res.set("aggservice.drain_ns.histogram", p.drainNS[aggservice.DrainHistogram])
	res.set("transport.mem_ns_per_pkt", p.memPerPkt.ns)
	res.set("transport.mem_allocs_per_pkt", p.memPerPkt.allocs)
	res.set("transport.udp_loop_ns_per_pkt", p.udpLoopPerPkt.ns)
	res.set("transport.udp_mmsg_ns_per_pkt", p.udpMmsgPerPkt.ns)
	res.set("transport.udp_allocs_per_pkt", p.udpMmsgPerPkt.allocs)
	res.set("worker.loop_ns_per_chunk", p.workerLoopPerChunk)
	res.set("process.peak_rss_mib", peakRSSMiB())
	ledger(res, w, p, selfPerAdd)
	return res, "", ops, nil
}

// ledger attributes one chunk's CPU time (one tuple row's, on
// analytics-mem) to the layers: each probe's cost times how often a chunk
// pays it. What the probes do not explain — contention, scheduling, GC
// and cache effects of the layers running together — is the remainder.
func ledger(res results, w *workload, p *probeSet, selfPerAdd float64) {
	compiled := w.profile == core.DefaultProfile
	pass := 0.0 // a pipeline pass, where the workload's arithmetic runs on the pipeline
	if compiled {
		pass = p.pisa.ns
	}
	var codec, pisa, coreNS, agg, fabric, client float64
	if w.analytics {
		// Of every four rows one is a group sum, one a Top-N row and two
		// are telemetry samples; all but Top-N rows add into a pipeline
		// accumulator. Each drain interval (8192 rows over both tenants)
		// ends with four drains that read-and-reset 96 accumulators on
		// average, and each 1024-row Send is one packet each way.
		const interval = lanes * sendsPer * sendRows
		const readResets = 1.5 * groups / interval
		tuple := (p.tupleAgg.ns + p.tupleTopN.ns + 2*p.tupleTelemetry.ns) / 4
		drains := (1.5*p.drainNS[aggservice.DrainGroups] + p.drainNS[aggservice.DrainHeavyHitters] + p.drainNS[aggservice.DrainHistogram]) / interval
		codec = p.tupleEncodePerRow.ns + p.ackDecode.ns/sendRows + 3.5*p.replyDecode.ns/interval
		pisa = (0.75 + readResets) * pass
		coreNS = 0.75*(p.pipeAdd.ns-pass) + readResets*(p.pipeReadReset.ns-pass)
		agg = tuple + drains - 0.75*p.pipeAdd.ns - readResets*p.pipeReadReset.ns
		fabric = p.memPerPkt.ns / sendRows
		client = p.workerLoopPerChunk - p.tupleEncodePerRow.ns - p.ackDecode.ns/sendRows - fabric
	} else {
		// A chunk is one ADD per worker into the switch the workers face
		// and one read-and-reset when it completes. In the tree each leaf
		// completes its own chunk (two read-and-resets) and re-emits it,
		// so the spine sees two more ADDs, one more read-and-reset and
		// two more packets each way.
		adds, readResets, packets := float64(lanes), 1.0, float64(lanes)
		if w.tree {
			adds, readResets, packets = 2*lanes, 3, 2*lanes
		}
		coalesced := res["aggservice.coalesced_frac"].Value
		decode := coalesced*p.runDecodePerChunk.ns + (1-coalesced)*p.resultDecode.ns
		perPkt := p.memPerPkt.ns
		if w.udp {
			perPkt = p.udpMmsgPerPkt.ns
			if udpBackend() == "per-datagram" {
				perPkt = p.udpLoopPerPkt.ns
			}
		}
		codec = lanes * (p.addEncode.ns + decode)
		pisa = (adds + readResets) * pass
		coreNS = adds*(p.switchAdd(w).ns-pass) + readResets*(p.switchReadReset(w).ns-pass)
		agg = adds * selfPerAdd
		fabric = packets * perPkt
		client = lanes * (p.workerLoopPerChunk - p.addEncode.ns - p.resultDecode.ns - p.memPerPkt.ns)
	}
	cpu := res["ledger.cpu_ns_per_chunk"].Value
	res.set("ledger.codec_ns_per_chunk", codec)
	res.set("ledger.pisa_ns_per_chunk", pisa)
	res.set("ledger.core_ns_per_chunk", coreNS)
	res.set("ledger.aggservice_ns_per_chunk", agg)
	res.set("ledger.transport_ns_per_chunk", fabric)
	res.set("ledger.worker_other_ns_per_chunk", client)
	res.set("ledger.unexplained_frac", 1-(codec+pisa+coreNS+agg+fabric+client)/cpu)
}
