package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// Fixed conditions shared by every workload (see README.md).
const (
	lanes     = 2 // load-generating goroutines: one Worker.Reduce or one TupleClient each
	pool      = 64
	shards    = 2
	sendRows  = 1024 // rows per TupleClient.Send, one wire batch
	sendsPer  = 4    // Sends between drains: a 4096-row drain interval
	groups    = 64   // query group registers and telemetry classes
	topN      = 16
	classBits = 6 // log2(groups): telemetry classes are the key's top bits
)

var bf16Trunc = core.NumericProfile{Format: core.FormatBF16}

// workload is one set of inputs and the switch it runs against.
type workload struct {
	name      string
	analytics bool
	arch      pisa.Arch
	modules   int
	profile   core.NumericProfile
	udp       bool
	tree      bool
	// elems is the fixed work of one trial: gradient elements per worker,
	// or tuple rows per tenant. Sized for about half a second per trial on
	// the 2-core reference host, so a run's budget holds some thirty trials
	// and their median rides out the host's slow stretches.
	elems int
}

var workloads = []workload{
	{name: "train-mem-m1", arch: pisa.BaseArch(), modules: 1, elems: 32 * 1024},
	{name: "train-mem-ext-m3", arch: pisa.ExtendedArch(), modules: 3, elems: 3 * 16 * 1024},
	{name: "train-udp-bf16", arch: pisa.ExtendedArch(), modules: 3, profile: bf16Trunc, udp: true, elems: 3 * 128 * 1024},
	{name: "train-tree", arch: pisa.BaseArch(), modules: 1, tree: true, elems: 16 * 1024},
	{name: "analytics-mem", analytics: true, arch: pisa.BaseArch(), modules: 1, elems: 32 * sendsPer * sendRows},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns the workload with its trial cut to 1/scale of the work,
// kept a whole number of protocol windows (or drain intervals).
func (w workload) scaled(scale int) workload {
	unit := pool * w.modules
	if w.analytics {
		unit = sendsPer * sendRows
	}
	w.elems = max(w.elems/scale/unit, 1) * unit
	return w
}

// chunks is how many ledger units one trial holds: protocol chunks
// (modules elements each), or tuple rows across both tenants.
func (w *workload) chunks() float64 {
	if w.analytics {
		return float64(lanes * w.elems)
	}
	return float64(w.elems / w.modules)
}

// elements is what elems_per_s counts in one trial: the reduced vector's
// length, or the rows acked across both tenants.
func (w *workload) elements() float64 {
	if w.analytics {
		return float64(lanes * w.elems)
	}
	return float64(w.elems)
}

// trainInput is the generated input of a training workload: one gradient
// vector per worker and the host float32 sum every worker must receive.
type trainInput struct {
	vecs [][]float32
	want []float32
}

// genTrain draws gradients on the 2^-8 dyadic grid with |v| ≤ 1/4. Every
// value and every two-worker sum has at most 8 significant bits and the
// exponents of nonzero values span 6 binades, inside FPISA-A's 7-bit
// headroom: the switch's sum is exact in f32 and in bf16 whichever ADD
// arrives first, so it must equal the host sum bit for bit.
func genTrain(rng *rand.Rand, n int) trainInput {
	in := trainInput{vecs: make([][]float32, lanes), want: make([]float32, n)}
	for w := range in.vecs {
		in.vecs[w] = make([]float32, n)
		for i := range in.vecs[w] {
			v := float32(rng.Intn(129)-64) / 256
			in.vecs[w][i] = v
			in.want[i] += v
		}
	}
	return in
}

// interval is one tenant's rows between two drains, with the replies a
// host mirror of the switch's register programs expects.
type interval struct {
	op        aggservice.TupleOp
	keys      []uint32
	vals      []float32
	survivors [sendsPer][]int // per Send, rows the Top-N registers keep
	drains    []wantDrain
}

type wantDrain struct {
	kind    aggservice.DrainKind
	entries []aggservice.DrainEntry
}

// analyticsInput holds both tenants' streams: job 0 is the query tenant,
// job 1 the telemetry tenant.
type analyticsInput struct {
	tenants [lanes][]interval
}

// binadeValue draws a value in the open binade (2^e, 2^(e+1)) with 5
// significant bits. All rows of one group share a binade and a group sees
// 64 rows between drains, so FPISA-A adds them without alignment shifts
// and inside its 7-bit headroom: the sum is exact. Staying off the powers
// of two keeps the telemetry histogram's log2 binning unambiguous.
func binadeValue(rng *rand.Rand, e int) float32 {
	return float32(17+rng.Intn(15)) / 16 * float32(int(1)<<e)
}

// dealGroups returns a shuffled slice holding every group index
// rows/groups times, so each group register sees the same bounded count
// per interval.
func dealGroups(rng *rand.Rand, rows int) []int {
	g := make([]int, rows)
	for i := range g {
		g[i] = i % groups
	}
	rng.Shuffle(rows, func(i, j int) { g[i], g[j] = g[j], g[i] })
	return g
}

func genAnalytics(rng *rand.Rand, rowsPerTenant int) analyticsInput {
	const rows = sendsPer * sendRows
	var in analyticsInput
	for iv := 0; iv < rowsPerTenant/rows; iv++ {
		in.tenants[0] = append(in.tenants[0], genQueryInterval(rng, rows, iv%2 == 1))
		in.tenants[1] = append(in.tenants[1], genTelemetryInterval(rng, rows))
	}
	return in
}

// genQueryInterval alternates the query tenant between group-sum rows
// (revenue per group) and Top-N rows; each ends with a groups drain that
// also resets the pruning registers.
func genQueryInterval(rng *rand.Rand, rows int, topn bool) interval {
	iv := interval{op: aggservice.OpQueryAgg, keys: make([]uint32, rows), vals: make([]float32, rows)}
	if topn {
		iv.op = aggservice.OpQueryTopN
		var reg [topN]float32
		filled := 0
		for i := range iv.keys {
			iv.keys[i] = rng.Uint32()
			v := 1 + rng.Float32()*999
			iv.vals[i] = v
			// Mirror of the Top-N pruning registers: fill, then replace
			// the first minimum when the row is at least as large.
			keep := filled < topN
			if keep {
				reg[filled] = v
				filled++
			} else {
				mi := 0
				for j := range reg {
					if reg[j] < reg[mi] {
						mi = j
					}
				}
				if keep = v >= reg[mi]; keep {
					reg[mi] = v
				}
			}
			if keep {
				s := i / sendRows
				iv.survivors[s] = append(iv.survivors[s], i%sendRows)
			}
		}
		iv.drains = []wantDrain{{kind: aggservice.DrainGroups}}
		return iv
	}
	var sums [groups]float32
	for i, g := range dealGroups(rng, rows) {
		iv.keys[i] = uint32(rng.Intn(1<<20))*groups + uint32(g)
		iv.vals[i] = binadeValue(rng, g%8)
		sums[g] += iv.vals[i]
	}
	iv.drains = []wantDrain{{kind: aggservice.DrainGroups, entries: groupEntries(sums[:])}}
	return iv
}

func groupEntries(sums []float32) []aggservice.DrainEntry {
	entries := make([]aggservice.DrainEntry, len(sums))
	for g, s := range sums {
		entries[g] = aggservice.DrainEntry{Key: uint32(g), Val: s}
	}
	return entries
}

// genTelemetryInterval draws flow samples: the key's top bits are the
// traffic class, the low bits a flow id skewed toward a few heavy flows,
// the value a packet size in the class's binade (8 B to 2 KiB). The
// interval ends with the three telemetry drains.
func genTelemetryInterval(rng *rand.Rand, rows int) interval {
	iv := interval{op: aggservice.OpTelemetry, keys: make([]uint32, rows), vals: make([]float32, rows)}
	var util [groups]float32
	type hhRow struct {
		key  uint32
		hits float32
		used bool
	}
	var hh [groups]hhRow
	var hist [32]int
	for i, class := range dealGroups(rng, rows) {
		key := uint32(class)<<(32-classBits) | uint32(rng.Intn(rng.Intn(256)+1))
		e := 3 + class%8
		v := binadeValue(rng, e)
		iv.keys[i], iv.vals[i] = key, v
		util[class] += v
		hist[e]++
		// Mirror of the direct-mapped heavy-hitter table: same key adds,
		// an empty row claims, a colliding key decays the incumbent and
		// takes over once it outweighs it.
		row := &hh[key%groups]
		switch {
		case !row.used:
			*row = hhRow{key, v, true}
		case row.key == key:
			row.hits += v
		default:
			row.hits -= v
			if row.hits < 0 {
				*row = hhRow{key, -row.hits, true}
			}
		}
	}
	var heavy []aggservice.DrainEntry
	for _, r := range hh {
		if r.used {
			heavy = append(heavy, aggservice.DrainEntry{Key: r.key, Val: r.hits})
		}
	}
	sortHeavy(heavy)
	var bins []aggservice.DrainEntry
	for e, c := range hist {
		if c > 0 {
			bins = append(bins, aggservice.DrainEntry{Key: uint32(e), Val: float32(c)})
		}
	}
	iv.drains = []wantDrain{
		{aggservice.DrainGroups, groupEntries(util[:])},
		{aggservice.DrainHeavyHitters, heavy},
		{aggservice.DrainHistogram, bins},
	}
	return iv
}

// sortHeavy orders heavy hitters as the switch drains them: by descending
// weight, ties by ascending key.
func sortHeavy(es []aggservice.DrainEntry) {
	slices.SortFunc(es, func(a, b aggservice.DrainEntry) int {
		if a.Val != b.Val {
			return cmp.Compare(b.Val, a.Val)
		}
		return cmp.Compare(a.Key, b.Key)
	})
}

// input is a workload's generated data.
type input struct {
	train     trainInput
	analytics analyticsInput
}

func (w *workload) generate(seed int64) input {
	rng := rand.New(rand.NewSource(seed))
	if w.analytics {
		return input{analytics: genAnalytics(rng, w.elems)}
	}
	return input{train: genTrain(rng, w.elems)}
}

// env is one freshly built switch (or tree) with its fabrics. A job
// incarnation serves one reduce, so every trial and every small reduce
// builds its own.
type env struct {
	w      *workload
	cfg    aggservice.Config  // what the lanes' clients are configured with
	fabs   []transport.Fabric // per lane, traced when a tracer is installed
	sw     *aggservice.Switch // the flat switch; nil for the tree
	leaves []*aggservice.Switch
	spine  *aggservice.Switch
	udp    *transport.UDP
	tr     *tracer
	closes []func()
}

func (e *env) close() {
	for i := len(e.closes) - 1; i >= 0; i-- {
		e.closes[i]()
	}
}

func portLane(port int) int { return port }

// build constructs the workload's switches and fabrics; with a tracer, the
// benchmark's own decorators wrap every fabric and handler.
func (w *workload) build(tr *tracer) (*env, error) {
	e := &env{w: w, tr: tr}
	base := aggservice.Config{
		Workers: lanes, Pool: pool, Modules: w.modules, Shards: shards,
		Profiles: []core.NumericProfile{w.profile},
		Mode:     core.ModeApprox, Arch: w.arch,
	}
	switch {
	case w.tree:
		return e, e.buildTree(base)
	case w.analytics:
		base.Workers, base.Jobs, base.Profiles = 1, lanes, nil
		base.Classes = []aggservice.AdmitClass{
			{Class: aggservice.ClassQuery, TopN: topN, Groups: groups},
			{Class: aggservice.ClassTelemetry, Groups: groups},
		}
	}
	sw, err := aggservice.NewSwitch(base)
	if err != nil {
		return nil, err
	}
	e.sw, e.cfg = sw, base
	e.closes = append(e.closes, sw.Close)
	handler := transport.BatchHandler(sw.HandleBatch)
	if tr != nil {
		handler = tracedHandler(tr, spanHandleBatch, !w.udp, portLane, handler)
	}
	var fab transport.Fabric
	if w.udp {
		u, err := transport.NewUDP(lanes, handler)
		if err != nil {
			e.close()
			return nil, err
		}
		// Room for a whole protocol window per socket, so loopback does
		// not drop a burst and stall a worker for its 200 ms timeout.
		u.SetBuffers(4 << 20)
		e.udp, fab = u, u
	} else {
		m, err := transport.NewMemory(transport.MemoryConfig{Workers: lanes, BatchHandler: handler})
		if err != nil {
			e.close()
			return nil, err
		}
		fab = m
	}
	e.closes = append(e.closes, func() { fab.Close() })
	if tr != nil {
		fab = tracedFabric{fab, tr, portLane}
	}
	e.fabs = []transport.Fabric{fab, fab}
	return e, nil
}

// buildTree wires two single-worker leaves to one spine, all on Memory
// fabrics; lane i's worker is worker 0 of leaf i, and leaf i is the
// spine's port i.
func (e *env) buildTree(spineCfg aggservice.Config) error {
	spine, err := aggservice.NewSwitch(spineCfg)
	if err != nil {
		return err
	}
	e.spine = spine
	e.closes = append(e.closes, spine.Close)
	spineHandler := transport.BatchHandler(spine.HandleBatch)
	if e.tr != nil {
		spineHandler = tracedHandler(e.tr, spanSpineBatch, true, portLane, spineHandler)
	}
	spineFab, err := transport.NewMemory(transport.MemoryConfig{Workers: lanes, BatchHandler: spineHandler})
	if err != nil {
		e.close()
		return err
	}
	e.closes = append(e.closes, func() { spineFab.Close() })
	leafCfg := spineCfg
	leafCfg.Workers = 1
	e.cfg = leafCfg
	e.leaves = make([]*aggservice.Switch, lanes)
	for li := 0; li < lanes; li++ {
		li := li
		toLane := func(int) int { return li }
		handler := transport.BatchHandler(func(port int, pkts [][]byte, out *transport.DeliveryList) {
			e.leaves[li].HandleBatch(port, pkts, out)
		})
		if e.tr != nil {
			handler = tracedHandler(e.tr, spanHandleBatch, true, toLane, handler)
		}
		fab, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: handler})
		if err != nil {
			e.close()
			return err
		}
		e.closes = append(e.closes, func() { fab.Close() })
		cfg := leafCfg
		cfg.Uplink = &aggservice.UplinkConfig{
			Fabric: spineFab, LeafID: li, Leaves: lanes,
			Control: aggservice.SwitchControl{Parent: spine},
			Push:    fab,
			// The zero value means no retries: the leaf would evict the job
			// the first time the other lane is 200 ms late, which a shared
			// host's scheduler manages now and then. Negative selects the
			// default budget, the one Worker runs with.
			Retries: -1,
		}
		if e.leaves[li], err = aggservice.NewSwitch(cfg); err != nil {
			e.close()
			return err
		}
		e.closes = append(e.closes, e.leaves[li].Close)
		if e.tr != nil {
			e.fabs = append(e.fabs, tracedFabric{fab, e.tr, toLane})
		} else {
			e.fabs = append(e.fabs, fab)
		}
	}
	return nil
}

// worker returns lane ln's Worker against this env.
func (e *env) worker(ln int) *aggservice.Worker {
	id := ln
	if e.w.tree {
		id = 0
	}
	return aggservice.NewJobWorker(0, id, e.fabs[ln], e.cfg)
}

// opCount tallies operations attempted and failed: a failed operation
// returned an error or a wrong answer.
type opCount struct{ attempted, failed int }

func (c *opCount) add(o opCount) { c.attempted += o.attempted; c.failed += o.failed }

// trainRun is what one reduce across both lanes produced.
type trainRun struct {
	wall    time.Duration // start to the slowest worker's return
	cpu     time.Duration
	ops     opCount
	workers [lanes]*aggservice.Worker
}

// reduce drives the first n elements of each lane's vector through
// Worker.Reduce, one goroutine per lane, and checks every reduced vector
// against the host sum. corrupt flips one received element first, to show
// that the check bites.
func (e *env) reduce(in trainInput, n int, corrupt bool) trainRun {
	var run trainRun
	var outs [lanes][]float32
	var errs [lanes]error
	for ln := range run.workers {
		run.workers[ln] = e.worker(ln)
	}
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for ln := 0; ln < lanes; ln++ {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			if e.tr != nil {
				e.tr.beginOp(ln, spanReduce, n/e.w.modules)
				defer e.tr.endOp(ln)
			}
			outs[ln], errs[ln] = run.workers[ln].Reduce(in.vecs[ln][:n])
		}(ln)
	}
	wg.Wait()
	run.wall, run.cpu = time.Since(t0), cpuTime()-cpu0
	if corrupt && errs[0] == nil {
		outs[0][n/2] += 1.0 / 256
	}
	for ln := 0; ln < lanes; ln++ {
		run.ops.attempted++
		if errs[ln] != nil || !slices.Equal(outs[ln], in.want[:n]) {
			run.ops.failed++
		}
	}
	return run
}

// analyticsRun is what one pass of both tenants' streams produced.
type analyticsRun struct {
	wall     time.Duration
	cpu      time.Duration
	ops      opCount
	drainsUS []float64 // observer drain request → decoded reply, all kinds
	clients  [lanes]*aggservice.TupleClient
}

// stream drives both tenants, one goroutine each: every interval is
// sendsPer Sends followed by the tenant's drains through the observer
// port. Replies are kept and checked against the host mirror after the
// clock stops.
func (e *env) stream(in analyticsInput, corrupt bool) analyticsRun {
	var run analyticsRun
	type got struct {
		survivors [][]int
		sendErrs  []error
		drains    [][]aggservice.DrainEntry
		drainErrs []error
	}
	var gots [lanes]got
	var lat [lanes][]float64
	for ln := range run.clients {
		run.clients[ln] = aggservice.NewTupleClient(ln, 0, e.fabs[ln], e.cfg)
	}
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for ln := 0; ln < lanes; ln++ {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			g := &gots[ln]
			nonce := uint32(0)
			for _, iv := range in.tenants[ln] {
				for s := 0; s < sendsPer; s++ {
					lo, hi := s*sendRows, (s+1)*sendRows
					if e.tr != nil {
						e.tr.beginOp(ln, spanSend, sendRows)
					}
					alive, err := run.clients[ln].Send(iv.op, iv.keys[lo:hi], iv.vals[lo:hi])
					if e.tr != nil {
						e.tr.endOp(ln)
					}
					g.survivors = append(g.survivors, alive)
					g.sendErrs = append(g.sendErrs, err)
				}
				for _, d := range iv.drains {
					nonce++
					start := time.Now()
					entries, err := e.drain(ln, d.kind, nonce)
					lat[ln] = append(lat[ln], float64(time.Since(start).Nanoseconds())/1e3)
					g.drains = append(g.drains, entries)
					g.drainErrs = append(g.drainErrs, err)
				}
			}
		}(ln)
	}
	wg.Wait()
	run.wall, run.cpu = time.Since(t0), cpuTime()-cpu0
	if corrupt && len(gots[1].drains) > 0 && len(gots[1].drains[0]) > 0 {
		gots[1].drains[0][0].Val++
	}
	for ln := 0; ln < lanes; ln++ {
		run.drainsUS = append(run.drainsUS, lat[ln]...)
		g := &gots[ln]
		si, di := 0, 0
		for _, iv := range in.tenants[ln] {
			for s := 0; s < sendsPer; s++ {
				run.ops.attempted++
				if g.sendErrs[si] != nil || !slices.Equal(g.survivors[si], iv.survivors[s]) {
					run.ops.failed++
				}
				si++
			}
			for _, d := range iv.drains {
				run.ops.attempted++
				if g.drainErrs[di] != nil || !slices.Equal(g.drains[di], d.entries) {
					run.ops.failed++
				}
				di++
			}
		}
	}
	return run
}

// drain sends one observer drain for job ln straight into the switch's
// HandleBatch and decodes the reply. The query tenant's drains also reset
// its pruning registers, so every Top-N interval starts clean.
func (e *env) drain(ln int, kind aggservice.DrainKind, nonce uint32) ([]aggservice.DrainEntry, error) {
	var flags uint8
	if ln == 0 {
		flags = aggservice.DrainFlagResetPrune
	}
	var dl transport.DeliveryList
	req := [][]byte{aggservice.EncodeDrain(ln, kind, flags, nonce)}
	if e.tr != nil {
		e.tr.beginOp(ln, spanDrain, 1)
		i := e.tr.push(ln, spanHandleBatch, 1)
		e.sw.HandleBatch(transport.ObserverWorker, req, &dl)
		e.tr.pop(ln, i)
		defer e.tr.endOp(ln)
	} else {
		e.sw.HandleBatch(transport.ObserverWorker, req, &dl)
	}
	if dl.Len() != 1 {
		return nil, fmt.Errorf("drain job %d %v: %d replies", ln, kind, dl.Len())
	}
	job, k, entries, err := aggservice.DecodeDrainReply(dl.Deliveries()[0].Packet)
	if err != nil {
		return nil, err
	}
	if job != ln || k != kind {
		return nil, fmt.Errorf("drain job %d %v: reply for job %d %v", ln, kind, job, k)
	}
	return entries, nil
}
