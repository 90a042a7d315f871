package aggservice

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// drive pushes the same deterministic packet sequence through a switch and
// returns every broadcast RESULT payload keyed by chunk.
func drive(t *testing.T, sw *Switch, vecs [][]float32, modules int) map[uint32][]byte {
	t.Helper()
	results := make(map[uint32][]byte)
	nChunks := (len(vecs[0]) + modules - 1) / modules
	for c := 0; c < nChunks; c++ {
		for w := range vecs {
			vals := make([]float32, modules)
			copy(vals, vecs[w][c*modules:min(len(vecs[w]), (c+1)*modules)])
			for _, d := range handle(sw, w, EncodeAddProfile(0, uint32(c), 0, core.DefaultProfile, vals)) {
				if !d.Broadcast {
					continue
				}
				chunk := binary.BigEndian.Uint32(d.Packet[4:])
				results[chunk] = append([]byte(nil), d.Packet...)
			}
		}
	}
	return results
}

// TestShardedMatchesUnsharded feeds the identical packet order through a
// 1-shard and a 4-shard switch: the sharded pipeline must produce
// bit-identical aggregation results — sharding partitions state, it must
// not perturb arithmetic.
func TestShardedMatchesUnsharded(t *testing.T) {
	const n = 48
	base := Config{Workers: 3, Pool: 4, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	g := gradients.NewGenerator(gradients.VGG19, 11)
	vecs := g.WorkerGradients(base.Workers, n)

	single, err := NewSwitch(base)
	if err != nil {
		t.Fatal(err)
	}
	shardedCfg := base
	shardedCfg.Shards = 4
	sharded, err := NewSwitch(shardedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 4 || single.Shards() != 1 {
		t.Fatalf("shard counts: %d / %d", single.Shards(), sharded.Shards())
	}

	r1 := drive(t, single, vecs, base.Modules)
	rN := drive(t, sharded, vecs, base.Modules)
	if len(r1) != n || len(rN) != n {
		t.Fatalf("completions: single %d, sharded %d, want %d", len(r1), len(rN), n)
	}
	for c := uint32(0); c < n; c++ {
		if string(r1[c]) != string(rN[c]) {
			t.Fatalf("chunk %d: sharded result differs from unsharded", c)
		}
	}
}

// TestPoolNotMultipleOfShards runs a reduce on a pool the shards do not
// divide (Pool 3 over 2 shards): a chunk and its bank partner c+Pool then
// live on DIFFERENT shards, the striping no benchmark workload or example
// takes. The result must be bit-identical to the single-shard switch's.
func TestPoolNotMultipleOfShards(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 3, Modules: 1, Shards: 2, Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	vecs := gridVecs(cfg.Workers, 41)
	got, sw, _ := runReduction(t, cfg, vecs, 0, 1)
	cfg.Shards = 1
	want, _, _ := runReduction(t, cfg, vecs, 0, 1)
	for w := range got {
		for i := range got[w] {
			if got[w][i] != want[0][i] || got[w][i] != vecs[0][i]+vecs[1][i] {
				t.Fatalf("worker %d elem %d = %g, single shard says %g, exact %g",
					w, i, got[w][i], want[0][i], vecs[0][i]+vecs[1][i])
			}
		}
	}
	if st, _ := sw.JobStats(0); st.Completions != 41 || st.Outstanding != 0 ||
		st.CacheBytes != uint64(2*cfg.Pool*resultBytes(cfg.Modules, core.DefaultProfile)) {
		t.Fatalf("stats after the reduce: %+v", st)
	}
}

// TestShardedHandleConcurrent hammers Handle from several goroutines with
// disjoint chunk ranges covering every slot exactly once; run under -race
// this doubles as the shard-locking race test.
func TestShardedHandleConcurrent(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 64, Modules: 1, Shards: 4,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	slots := 2 * cfg.Pool // chunks 0..127 hit each slot exactly once
	var delivered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := g; c < slots; c += goroutines {
				for _, d := range handle(sw, 0, EncodeAddProfile(0, uint32(c), 0, core.DefaultProfile, []float32{float32(c)})) {
					if d.Broadcast {
						delivered.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	adds, dups, completions := sw.Stats()
	if completions != uint64(slots) || delivered.Load() != uint64(slots) {
		t.Fatalf("completions %d, delivered %d, want %d", completions, delivered.Load(), slots)
	}
	if adds != uint64(slots) || dups != 0 {
		t.Fatalf("adds %d dups %d, want %d/0", adds, dups, slots)
	}
}

// TestShardedReduceUnderLoss runs the full protocol against a sharded
// switch with loss on both directions; all workers must agree.
func TestShardedReduceUnderLoss(t *testing.T) {
	cfg := Config{Workers: 4, Pool: 4, Modules: 1, Shards: 4,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	g := gradients.NewGenerator(gradients.VGG19, 5)
	vecs := g.WorkerGradients(cfg.Workers, 40)
	results, _, fab := runReduction(t, cfg, vecs, 0.1, 13)
	if _, lostUp, lostDown, _ := fab.Stats(); lostUp == 0 && lostDown == 0 {
		t.Fatal("loss injection did not fire")
	}
	for w := 1; w < len(results); w++ {
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("workers 0 and %d disagree at element %d", w, i)
			}
		}
	}
}

// flakyAgg injects faults into a shard's aggregator: the next
// failNext adding passes (a slot version's first ADD or a later one) fail.
type flakyAgg struct {
	aggregator
	failNext int
}

func (f *flakyAgg) fault() error {
	if f.failNext > 0 {
		f.failNext--
		return errors.New("injected aggregator fault")
	}
	return nil
}

func (f *flakyAgg) AddInto(idx int, vals, out []byte) (bool, error) {
	if err := f.fault(); err != nil {
		return false, err
	}
	return f.aggregator.AddInto(idx, vals, out)
}

func (f *flakyAgg) SetInto(idx int, vals, out []byte) (bool, error) {
	if err := f.fault(); err != nil {
		return false, err
	}
	return f.aggregator.SetInto(idx, vals, out)
}

// countingAgg counts the operations one bank's aggregator runs, and how
// many of them were handed an out to write a response into.
type countingAgg struct {
	aggregator
	ops, emitted *atomic.Uint64
}

func (c countingAgg) count(out []byte) {
	c.ops.Add(1)
	if out != nil {
		c.emitted.Add(1)
	}
}

func (c countingAgg) AddInto(idx int, vals, out []byte) (bool, error) {
	c.count(out)
	return c.aggregator.AddInto(idx, vals, out)
}

func (c countingAgg) SetInto(idx int, vals, out []byte) (bool, error) {
	c.count(out)
	return c.aggregator.SetInto(idx, vals, out)
}

func (c countingAgg) ReadResetInto(idx int, out []byte) (bool, error) {
	c.count(out)
	return c.aggregator.ReadResetInto(idx, out)
}

// countOps wraps every bank of job's live incarnation in a countingAgg and
// returns a function reading the totals: the aggregator operations the
// job's traffic cost this switch, and how many of them wrote a response.
// Call it before any traffic flows.
func countOps(sw *Switch, job int) func() (ops, emitted uint64) {
	var nops, nemitted atomic.Uint64
	banks := sw.jobs[job].live.Load().banks
	for k := range banks {
		banks[k].agg = countingAgg{aggregator: banks[k].agg, ops: &nops, emitted: &nemitted}
	}
	return func() (uint64, uint64) { return nops.Load(), nemitted.Load() }
}

// TestAddFailureLeavesSlotRetransmittable covers a failed aggregator call on
// both halves of a chunk. A failed FIRST add (the call that binds the slot
// by overwrite) must leave the slot unbound and every ledger the bind
// charged back where it was, so the retransmit binds as if nothing had
// happened. A failed LATER add must not mark the worker's contribution as
// arrived (the seen-before-add bug), so its retransmit still completes the
// chunk with the correct sum.
func TestAddFailureLeavesSlotRetransmittable(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 1, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := sw.shards[0]
	inc := sw.jobs[0].live.Load()
	flaky := &flakyAgg{aggregator: inc.banks[0].agg, failNext: 1}
	inc.banks[0].agg = flaky
	st := sw.slotAt(inc, 0)
	outstanding := func() int64 { js, _ := sw.JobStats(0); return js.Outstanding }
	unbound := st.chunk

	pkt0 := EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1.5})
	if ds := handle(sw, 0, pkt0); ds != nil {
		t.Fatalf("failed first add returned deliveries: %v", ds)
	}
	if st.chunk != unbound || st.aggregating() || st.seen[0] || st.nSeen != 0 {
		t.Fatalf("failed first add bound the slot: chunk=%d nSeen=%d", st.chunk, st.nSeen)
	}
	if n := outstanding(); n != 0 {
		t.Fatalf("failed first add left outstanding=%d", n)
	}
	if d := sh.sched.jobs[0].deficit; d != inc.quantum() {
		t.Fatalf("failed first add billed the scheduler: deficit %d of %d", d, inc.quantum())
	}
	if adds, _, _ := sw.Stats(); adds != 0 {
		t.Fatalf("failed first add counted: adds=%d", adds)
	}

	// The retransmit binds the slot.
	if ds := handle(sw, 0, pkt0); ds != nil {
		t.Fatalf("retransmit should not complete the chunk yet: %v", ds)
	}
	if st.chunk != 0 || !st.seen[0] || st.nSeen != 1 || outstanding() != 1 {
		t.Fatalf("retransmit did not bind: chunk=%d nSeen=%d outstanding=%d", st.chunk, st.nSeen, outstanding())
	}

	// The second worker's add fails: the slot stays bound, the worker unseen.
	flaky.failNext = 1
	pkt1 := EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{2.25})
	if ds := handle(sw, 1, pkt1); ds != nil {
		t.Fatalf("failed add returned deliveries: %v", ds)
	}
	if st.chunk != 0 || st.seen[1] || st.nSeen != 1 {
		t.Fatalf("failed add marked worker seen or unbound the slot (chunk=%d nSeen=%d)", st.chunk, st.nSeen)
	}
	if adds, _, _ := sw.Stats(); adds != 1 {
		t.Fatalf("failed add counted: adds=%d", adds)
	}

	// Its retransmit completes the chunk with the right sum.
	ds := handle(sw, 1, pkt1)
	if len(ds) != 1 || !ds[0].Broadcast {
		t.Fatalf("chunk did not complete: %v", ds)
	}
	_, _, vals, _, err := DecodeResultProfile(ds[0].Packet, 1, core.DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 3.75 {
		t.Fatalf("sum = %g, want 3.75 (a contribution lost or doubled?)", vals[0])
	}
}

// TestOversizedAddRejected covers the garbage-payload check: ADDs longer
// (or shorter) than the wire format must be dropped without touching state.
func TestOversizedAddRejected(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 1, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1})
	oversized := append(append([]byte(nil), good...), 0xde, 0xad)
	if ds := handle(sw, 0, oversized); ds != nil {
		t.Fatalf("oversized ADD accepted: %v", ds)
	}
	if ds := handle(sw, 0, good[:len(good)-1]); ds != nil {
		t.Fatalf("truncated ADD accepted: %v", ds)
	}
	if adds, _, _ := sw.Stats(); adds != 0 {
		t.Fatalf("garbage mutated state: adds=%d", adds)
	}
}

// holFabric answers every ADD immediately except the first transmission
// of chunk 0, which it swallows — a targeted single loss.
type holFabric struct {
	mu      sync.Mutex
	sent    []int
	dropped bool
	replies chan []byte
}

func (f *holFabric) SendBatch(worker int, pkts [][]byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range pkts {
		c := binary.BigEndian.Uint32(m[4:])
		f.sent = append(f.sent, int(c))
		if c == 0 && !f.dropped {
			f.dropped = true
			continue
		}
		out := make([]byte, resultBytes(1, core.DefaultProfile))
		putHeader(out, MsgResult, 0, c)
		copy(out[hdrBytes:], m[addValOff:addValOff+4])
		f.replies <- out
	}
	return nil
}

func (f *holFabric) RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error) {
	select {
	case pkt := <-f.replies:
		bufs[0] = append(bufs[0][:0], pkt...)
		return 1, nil
	case <-time.After(timeout):
		return 0, transport.ErrTimeout
	}
}

func (f *holFabric) Close() error { return nil }

// TestNoHeadOfLineBlocking verifies per-slot self-clocking: losing chunk
// 0's round trip must not stop the window slots behind it — chunks gated
// on 1..pool-1 still go out before the stall retransmits chunk 0.
func TestNoHeadOfLineBlocking(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 4, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	fab := &holFabric{replies: make(chan []byte, 64)}
	w := &Worker{ID: 0, Fabric: fab, Cfg: cfg, Timeout: 100 * time.Millisecond, Retries: 50}
	vec := make([]float32, 8)
	for i := range vec {
		vec[i] = float32(i + 1)
	}
	out, err := w.Reduce(vec)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vec {
		if out[i] != v {
			t.Fatalf("elem %d = %g, want %g", i, out[i], v)
		}
	}
	pos := func(chunk, from int) int {
		for i := from; i < len(fab.sent); i++ {
			if fab.sent[i] == chunk {
				return i
			}
		}
		return -1
	}
	retrans := pos(0, pos(0, 0)+1) // chunk 0's second transmission
	if retrans == -1 {
		t.Fatalf("chunk 0 never retransmitted: %v", fab.sent)
	}
	for _, c := range []int{5, 6, 7} {
		p := pos(c, 0)
		if p == -1 || p > retrans {
			t.Fatalf("chunk %d blocked behind chunk 0's loss (send order %v)", c, fab.sent)
		}
	}
}

// TestNegativeSentinelsApplyDefaults checks end to end that negative tuning
// values mean the defaults, as zero does.
func TestNegativeSentinelsApplyDefaults(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 2, Modules: 1, Shards: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Workers, BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	vec := []float32{1, 2, 3, 4, 5}
	results := make([][]float32, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{ID: i, Fabric: fab, Cfg: cfg, Timeout: -1, Retries: -1}
			results[i], errs[i] = w.Reduce(vec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i, v := range vec {
		if results[0][i] != 2*v {
			t.Fatalf("elem %d = %g, want %g", i, results[0][i], 2*v)
		}
	}
}

// TestMaxBatchFitsResultDatagram pins the batch bound to the downlink: a
// full ADD batch can complete every chunk at once, and the coalesced
// RESULT batch must still fit one datagram by the fabric's budget.
func TestMaxBatchFitsResultDatagram(t *testing.T) {
	for _, modules := range []int{1, 3, 64} {
		n := maxBatchChunks(modules)
		if n < 1 {
			t.Fatalf("modules=%d: batch bound %d", modules, n)
		}
		size := resultBytes(modules, core.DefaultProfile)
		if fit := transport.FrameCapacity(size); n > fit {
			t.Errorf("modules=%d: %d-chunk result batch, but one datagram carries %d RESULTs of %d bytes",
				modules, n, fit, size)
		}
	}
}

// TestHandleBatchGroupsShards pins the vectored ingest: a whole uplink
// vector spanning every shard completes in ONE HandleBatch call, with the
// same per-chunk results the per-packet path produced.
func TestHandleBatchGroupsShards(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 8, Modules: 1, Shards: 4,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	pkts := make([][]byte, n)
	for c := range pkts {
		pkts[c] = EncodeAddProfile(0, uint32(c), 0, core.DefaultProfile, []float32{float32(c) + 0.5})
	}
	var dl transport.DeliveryList
	sw.HandleBatch(0, pkts, &dl)
	ds := dl.Deliveries()
	// The n consecutive completions coalesce into run-length replies, so
	// there are FEWER deliveries than chunks; every chunk must still be
	// answered exactly once across them.
	if len(ds) == 0 || len(ds) >= n {
		t.Fatalf("%d deliveries for %d single-worker chunks (runs should coalesce)", len(ds), n)
	}
	seen := make([]bool, n)
	record := func(chunk uint32, vals []float32) {
		if want := float32(chunk) + 0.5; vals[0] != want {
			t.Errorf("chunk %d = %g, want %g", chunk, vals[0], want)
		}
		if seen[chunk] {
			t.Errorf("chunk %d delivered twice", chunk)
		}
		seen[chunk] = true
	}
	for _, d := range ds {
		if typ, _, _ := decodeHeader(d.Packet); typ == MsgResultRun {
			_, start, rvals, _, err := DecodeResultRun(d.Packet, 1, core.DefaultProfile)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rvals {
				record(start+uint32(i), rvals[i])
			}
			continue
		}
		_, chunk, vals, _, err := DecodeResultProfile(d.Packet, 1, core.DefaultProfile)
		if err != nil {
			t.Fatal(err)
		}
		record(chunk, vals)
	}
	if st, _ := sw.JobStats(0); st.Coalesced == 0 {
		t.Error("no chunks counted as coalesced")
	}
	for c, ok := range seen {
		if !ok {
			t.Errorf("chunk %d never completed", c)
		}
	}
	adds, _, completions := sw.Stats()
	if adds != n || completions != n {
		t.Errorf("adds=%d completions=%d, want %d each", adds, completions, n)
	}
}

// TestWorkerBatchingAmortizesDatagrams verifies that the batched wire
// format sends measurably fewer datagrams than chunk messages.
func TestWorkerBatchingAmortizesDatagrams(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 8, Modules: 1, Shards: 4,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Workers, BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	vecs := make([][]float32, cfg.Workers)
	for w := range vecs {
		vecs[w] = make([]float32, n)
		for i := range vecs[w] {
			vecs[w][i] = float32(w + i)
		}
	}
	workers := make([]*Worker, cfg.Workers)
	results := make([][]float32, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = NewWorker(i, fab, cfg)
		workers[i].Timeout = 200 * time.Millisecond
		workers[i].Retries = 500
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = workers[i].Reduce(vecs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		want := vecs[0][i] + vecs[1][i]
		if results[0][i] != want {
			t.Fatalf("elem %d = %g, want %g", i, results[0][i], want)
		}
	}
	for i, w := range workers {
		if w.SentPackets < n {
			t.Fatalf("worker %d sent %d chunk messages, want >= %d", i, w.SentPackets, n)
		}
		if w.SentDatagrams >= w.SentPackets {
			t.Fatalf("worker %d: %d datagrams for %d messages — batching did not amortize",
				i, w.SentDatagrams, w.SentPackets)
		}
	}
}

// TestShardValidation covers the new Shards configuration checks.
func TestShardValidation(t *testing.T) {
	base := Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	for name, mutate := range map[string]func(*Config){
		"negative": func(c *Config) { c.Shards = -1 },
		"too many": func(c *Config) { c.Shards = 2*c.Pool + 1 },
	} {
		c := base
		mutate(&c)
		if _, err := NewSwitch(c); err == nil {
			t.Errorf("%s shards accepted: %+v", name, c)
		}
	}
	// Every legal shard count instantiates.
	for s := 0; s <= 2*base.Pool; s++ {
		c := base
		c.Shards = s
		if _, err := NewSwitch(c); err != nil {
			t.Errorf("shards=%d rejected: %v", s, err)
		}
	}
}

// TestConcurrentWorkersReuseScratch: two Workers of one job reduce 4096
// elements at once on a 2-shard Memory switch. A send vector that crosses
// a block boundary spans both shards, so its HandleBatch groups its ADDs by
// shard in a pooled batchScratch; a grouping left stale in a recycled
// scratch loses or replays ADDs, which a lossless fabric shows as a
// switch-side retransmit, a worker retransmit or a stall. The reduce must
// be bit-exact with none of them.
func TestConcurrentWorkersReuseScratch(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 16, Modules: 1, Shards: 2, Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	const n = 4096
	vecs := gridVecs(cfg.Workers, n)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Workers, BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	workers := make([]*Worker, cfg.Workers)
	results := make([][]float32, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := range workers {
		// A stall is a failure here, so a long timeout and a short retry
		// budget: no loaded host times out a lossless exchange, and a
		// broken grouping fails in seconds.
		workers[w] = &Worker{ID: w, Fabric: fab, Cfg: cfg, Timeout: time.Second, Retries: 3}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = workers[w].Reduce(vecs[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := range results {
		for i, got := range results[w] {
			if want := vecs[0][i] + vecs[1][i]; got != want {
				t.Fatalf("worker %d elem %d = %g, want %g", w, i, got, want)
			}
		}
	}
	if st, _ := sw.JobStats(0); st.Retransmits != 0 || st.Completions != n || st.Adds != 2*n {
		t.Fatalf("switch saw retransmits=%d completions=%d adds=%d, want 0/%d/%d",
			st.Retransmits, st.Completions, st.Adds, n, 2*n)
	}
	for w, wk := range workers {
		if wk.SentPackets != n {
			t.Fatalf("worker %d sent %d ADDs for %d chunks", w, wk.SentPackets, n)
		}
	}
}
