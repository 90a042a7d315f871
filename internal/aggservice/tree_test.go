package aggservice

import (
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// buildTree wires nLeaves leaf switches to one spine over Memory fabrics:
// the spine is an ordinary Switch whose "workers" are the leaves, each
// leaf's Uplink dials the spine fabric and pushes finals down its own
// fabric. spineLoss seeds symmetric loss on the spine fabric only — the
// cross-level hop the uplink retransmit clock protects.
func buildTree(t *testing.T, leafCfg, spineCfg Config, nLeaves int, spineLoss float64, seed int64,
	upTimeout time.Duration, upRetries int) (*Switch, []*Switch, []*transport.Memory) {
	t.Helper()
	spine, err := NewSwitch(spineCfg)
	if err != nil {
		t.Fatal(err)
	}
	spineFab, err := transport.NewMemory(transport.MemoryConfig{
		Workers: spineCfg.Ports(), BatchHandler: spine.HandleBatch,
		UplinkLoss: spineLoss, DownlinkLoss: spineLoss, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]*Switch, nLeaves)
	fabs := make([]*transport.Memory, nLeaves)
	for i := 0; i < nLeaves; i++ {
		i := i
		// The leaf fabric needs the leaf switch's handler and the leaf
		// switch needs the fabric as its Pusher; the closure breaks the
		// cycle (no traffic flows before the assignment below).
		fabs[i], err = transport.NewMemory(transport.MemoryConfig{
			Workers: leafCfg.Ports(),
			BatchHandler: func(w int, pkts [][]byte, out *transport.DeliveryList) {
				leaves[i].HandleBatch(w, pkts, out)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := leafCfg
		cfg.Uplink = &UplinkConfig{
			Fabric: spineFab, LeafID: i, Leaves: nLeaves,
			Control: SwitchControl{Parent: spine},
			Push:    fabs[i],
			Timeout: upTimeout, Retries: upRetries,
		}
		leaves[i], err = NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, l := range leaves {
			l.Close()
		}
		spine.Close()
	})
	return spine, leaves, fabs
}

// treeReduce runs one all-reduce across every leaf's workers; vecs is
// indexed leaf·Workers + worker, epochs per leaf.
func treeReduce(leaves []*Switch, fabs []*transport.Memory, leafCfg Config, job int,
	epochs []uint8, vecs [][]float32, timeout time.Duration, retries int) ([][]float32, []error) {
	workers := leafCfg.Workers
	n := len(leaves) * workers
	out := make([][]float32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for li := range leaves {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(li, w int) {
				defer wg.Done()
				wk := NewJobWorker(job, w, fabs[li], leafCfg)
				wk.Timeout = timeout
				wk.Retries = retries
				wk.Epoch = epochs[li]
				idx := li*workers + w
				out[idx], errs[idx] = wk.Reduce(vecs[idx])
			}(li, w)
		}
	}
	wg.Wait()
	return out, errs
}

// gridVecs builds worker gradients quantized to the 2^-10 dyadic grid with
// |value| < 1: every partial sum of up to ~2^13 of them is exactly
// representable in f32, so ADDITION IS EXACT AND ASSOCIATION-INDEPENDENT —
// the property that makes a tree aggregate bit-identical to a flat one
// regardless of arrival order.
func gridVecs(n, vecLen int) [][]float32 {
	vecs := make([][]float32, n)
	for w := range vecs {
		vecs[w] = make([]float32, vecLen)
		for i := range vecs[w] {
			vecs[w][i] = float32((w*131+i*7)%257-128) / 1024
		}
	}
	return vecs
}

// TestTreeAllreduceMemory pins the tentpole's correctness claim: a 2-level
// tree (2 leaves × 3 workers → 1 spine) produces a result bit-identical to
// one flat 6-worker switch reducing the same gradients.
func TestTreeAllreduceMemory(t *testing.T) {
	const nLeaves, workers, vecLen = 2, 3, 137
	leafCfg := Config{Workers: workers, Pool: 4, Modules: 2, Shards: 2,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	spineCfg := Config{Workers: nLeaves, Pool: 4, Modules: 2, Shards: 2,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	spine, leaves, fabs := buildTree(t, leafCfg, spineCfg, nLeaves, 0, 1, 0, 0)

	vecs := gridVecs(nLeaves*workers, vecLen)
	results, errs := treeReduce(leaves, fabs, leafCfg, 0, []uint8{0, 0}, vecs,
		50*time.Millisecond, 500)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tree worker %d: %v", i, err)
		}
	}

	flatCfg := Config{Workers: nLeaves * workers, Pool: 4, Modules: 2, Shards: 2,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	flat, _, _ := runReduction(t, flatCfg, vecs, 0, 1)

	for i, r := range results {
		for j := range r {
			if r[j] != flat[0][j] {
				t.Fatalf("tree worker %d elem %d = %g, flat switch says %g", i, j, r[j], flat[0][j])
			}
		}
	}
	// The spine saw one ADD per leaf per chunk, no more.
	nChunks := uint64((vecLen + leafCfg.Modules - 1) / leafCfg.Modules)
	if adds, _, completions := spine.Stats(); completions != nChunks || adds != nLeaves*nChunks {
		t.Errorf("spine adds=%d completions=%d, want %d/%d", adds, completions, nLeaves*nChunks, nChunks)
	}
	for i, l := range leaves {
		if _, _, completions := l.Stats(); completions != nChunks {
			t.Errorf("leaf %d completions=%d, want %d", i, completions, nChunks)
		}
		if p := l.UplinkPending(0); p != 0 {
			t.Errorf("leaf %d still owes %d uplink chunks", i, p)
		}
	}
}

// TestTreeSpineEvictionDrainsLeaves pins mid-tree eviction: evicting the
// job at the SPINE propagates down through epoch-matched lifecycle notices
// on the uplink, drains both leaves cleanly (gauges zeroed, nothing still
// owed upward), and the job re-admits on fresh slots and re-runs across the
// whole tree afterwards.
func TestTreeSpineEvictionDrainsLeaves(t *testing.T) {
	const nLeaves, workers = 2, 3
	leafCfg := Config{Workers: workers, Pool: 2, Modules: 1, Shards: 2,
		DrainTimeout: 100 * time.Millisecond,
		Mode:         core.ModeApprox, Arch: pisa.BaseArch()}
	spineCfg := Config{Workers: nLeaves, Pool: 2, Modules: 1, Shards: 2,
		DrainTimeout: 100 * time.Millisecond,
		Mode:         core.ModeApprox, Arch: pisa.BaseArch()}
	spine, leaves, fabs := buildTree(t, leafCfg, spineCfg, nLeaves, 0, 1,
		20*time.Millisecond, 10)

	// A long reduce, evicted mid-flight at the spine.
	vecs := gridVecs(nLeaves*workers, 50_000)
	errsc := make(chan []error, 1)
	go func() {
		_, errs := treeReduce(leaves, fabs, leafCfg, 0, []uint8{0, 0}, vecs,
			30*time.Millisecond, 200)
		errsc <- errs
	}()
	for { // wait until the tree is demonstrably aggregating
		if _, _, completions := spine.Stats(); completions > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := spine.Evict(0); err != nil {
		t.Fatal(err)
	}
	for i, err := range <-errsc {
		if err == nil {
			t.Errorf("worker %d finished a reduce the spine evicted", i)
		} else if !errors.Is(err, ErrJobEvicted) {
			t.Logf("worker %d aborted: %v", i, err) // stall-exhaustion is also acceptable
		}
	}
	// The eviction must reach every level: the spine drains on its own
	// timeout, each leaf drains after its uplink bounces.
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range append([]*Switch{spine}, leaves...) {
		for s.JobPhaseOf(0) != PhaseVacant {
			if time.Now().After(deadline) {
				t.Fatal("eviction never propagated to every level")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	auditSwitch(t, "spine", spine)
	for i, l := range leaves {
		auditSwitch(t, "leaf", l)
		if p := l.UplinkPending(0); p != 0 {
			t.Errorf("leaf %d: %d uplink chunks survived the eviction", i, p)
		}
	}

	// Re-admit on each leaf — the first negotiates a fresh spine
	// incarnation up the tree, the second finds it already admitted — and
	// re-run from scratch on the fresh incarnations' slots.
	epochs := make([]uint8, nLeaves)
	for i, l := range leaves {
		if err := l.Admit(0, JobSpec{}); err != nil {
			t.Fatalf("leaf %d re-admit: %v", i, err)
		}
		epochs[i] = l.JobEpoch(0)
		if epochs[i] == 0 {
			t.Errorf("leaf %d re-admitted under epoch 0 — the incarnation never moved", i)
		}
		auditSwitch(t, "re-admitted leaf", l, 0)
	}
	auditSwitch(t, "re-admitted spine", spine, 0)
	short := gridVecs(nLeaves*workers, 64)
	results, errs := treeReduce(leaves, fabs, leafCfg, 0, epochs, short,
		30*time.Millisecond, 500)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("re-admitted worker %d: %v", i, err)
		}
	}
	var want float32
	for w := range short {
		want += short[w][0]
	}
	for i, r := range results {
		if r[0] != want {
			t.Errorf("re-admitted worker %d elem 0 = %g, want %g", i, r[0], want)
		}
	}
}

// TestTreeUplinkRetransmit pins the cross-level loss recovery: with the
// spine fabric dropping uplink ADDs and downlink aggregates, the leaves'
// uplink clients must retransmit pending chunks until the parent answers —
// and the reduce still completes exactly.
func TestTreeUplinkRetransmit(t *testing.T) {
	const nLeaves, workers = 2, 2
	leafCfg := Config{Workers: workers, Pool: 2, Modules: 1, Shards: 2,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	spineCfg := Config{Workers: nLeaves, Pool: 2, Modules: 1, Shards: 2,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	spine, leaves, fabs := buildTree(t, leafCfg, spineCfg, nLeaves, 0.25, 42,
		10*time.Millisecond, 1000)

	vecs := gridVecs(nLeaves*workers, 96)
	results, errs := treeReduce(leaves, fabs, leafCfg, 0, []uint8{0, 0}, vecs,
		30*time.Millisecond, 1000)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	var want float32
	for w := range vecs {
		want += vecs[w][0]
	}
	for i, r := range results {
		if r[0] != want {
			t.Errorf("worker %d elem 0 = %g, want %g", i, r[0], want)
		}
	}
	var retrans uint64
	for _, l := range leaves {
		retrans += l.UplinkRetransmits(0)
	}
	if retrans == 0 {
		t.Error("25% spine loss produced zero uplink retransmits")
	}
	if _, _, completions := spine.Stats(); completions == 0 {
		t.Error("spine completed nothing")
	}
}

// dropOnceFabric is a leaf's scripted uplink: it drops the FIRST
// transmission of every chunk's uplink ADD and forwards later ones to the
// real spine fabric, logging each send vector as chunk ids together with
// what the leaf's slots owed the parent at that moment.
type dropOnceFabric struct {
	transport.Fabric // the spine's fabric
	leaf             *Switch

	mu      sync.Mutex
	dropped map[uint32]bool
	sends   [][]uint32
	owed    []int
}

func (f *dropOnceFabric) SendBatch(port int, pkts [][]byte) error {
	owed := f.leaf.UplinkPending(0)
	f.mu.Lock()
	chunks := make([]uint32, len(pkts))
	var pass [][]byte
	for i, p := range pkts {
		chunks[i] = binary.BigEndian.Uint32(p[4:])
		if f.dropped[chunks[i]] {
			pass = append(pass, p)
		}
		f.dropped[chunks[i]] = true
	}
	f.sends = append(f.sends, chunks)
	f.owed = append(f.owed, owed)
	f.mu.Unlock()
	if len(pass) == 0 {
		return nil
	}
	return f.Fabric.SendBatch(port, pass)
}

// pushLog is the Pusher of a leaf whose workers the test plays by calling
// HandleBatch itself: it keeps every final RESULT the uplink fans down.
type pushLog struct {
	mu sync.Mutex
	ds []transport.Delivery
}

func (p *pushLog) Push(ds []transport.Delivery) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range ds { // borrowed: a Pusher copies before it returns
		d.Packet = append([]byte(nil), d.Packet...)
		p.ds = append(p.ds, d)
	}
	return nil
}

// waitChunks waits until the pushed RESULTs and RESULT RUNs cover n chunks
// and returns their ids in push order.
func (p *pushLog) waitChunks(t *testing.T, n int) []uint32 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var chunks []uint32
		p.mu.Lock()
		for _, d := range p.ds {
			readDownlink(d.Packet, 0, 0, core.DefaultProfile, 1, func(c uint32, _ []byte, _ bool) {
				chunks = append(chunks, c)
			})
		}
		p.mu.Unlock()
		if len(chunks) >= n {
			return chunks
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaf pushed finals for chunks %v, want %d of them", chunks, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// dropOnceLeaf builds a one-leaf tree over a dropOnceFabric uplink: cfg's
// job 0 at the leaf, the spine with one worker (the leaf), a 20 ms uplink
// timeout and the zero Retries.
func dropOnceLeaf(t *testing.T, cfg Config) (spine, leaf *Switch, up *dropOnceFabric, push *pushLog) {
	t.Helper()
	spineCfg := cfg
	spineCfg.Workers = 1
	spine, err := NewSwitch(spineCfg)
	if err != nil {
		t.Fatal(err)
	}
	spineFab, err := transport.NewMemory(transport.MemoryConfig{Workers: spineCfg.Ports(), BatchHandler: spine.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	up = &dropOnceFabric{Fabric: spineFab, dropped: make(map[uint32]bool)}
	push = &pushLog{}
	cfg.Uplink = &UplinkConfig{Fabric: up, Leaves: 1, Control: SwitchControl{Parent: spine}, Push: push,
		Timeout: 20 * time.Millisecond}
	if leaf, err = NewSwitch(cfg); err != nil {
		t.Fatal(err)
	}
	up.leaf = leaf
	t.Cleanup(func() { leaf.Close(); spineFab.Close() })
	return spine, leaf, up, push
}

// TestTreeUplinkRetransmitFromSlots pins the slot-owned uplink state: with
// every uplink datagram dropped once, the retransmit round must resend
// exactly the chunks whose slots are in the uplinked state — not the one
// still aggregating, not the ones already final — in chunk order, and the
// owed count must return to 0 once the parent's aggregates install and fan
// down to the leaf's workers.
func TestTreeUplinkRetransmitFromSlots(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 4, Modules: 1, Shards: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	spine, leaf, up, push := dropOnceLeaf(t, cfg)

	adds := func(worker int, chunks ...uint32) {
		var pkts [][]byte
		for _, c := range chunks {
			pkts = append(pkts, EncodeAddProfile(0, c, 0, core.DefaultProfile, []float32{1}))
		}
		var dl transport.DeliveryList
		leaf.HandleBatch(worker, pkts, &dl)
	}
	settle := func(retrans uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for leaf.UplinkPending(0) != 0 || leaf.UplinkRetransmits(0) != retrans {
			if time.Now().After(deadline) {
				t.Fatalf("leaf still owes %d uplink chunks after %d retransmits (want 0 after %d)",
					leaf.UplinkPending(0), leaf.UplinkRetransmits(0), retrans)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Chunks 0, 1 and 3 complete locally in one batch; chunk 2 stays
	// aggregating (worker 1 never sent it).
	adds(0, 0, 1, 2, 3)
	adds(1, 0, 1, 3)
	settle(3)
	// Chunk 2 completes after the others went final.
	adds(1, 2)
	settle(4)

	up.mu.Lock()
	defer up.mu.Unlock()
	wantSends := [][]uint32{{0, 1, 3}, {0, 1, 3}, {2}, {2}}
	wantOwed := []int{3, 3, 1, 1}
	if !reflect.DeepEqual(up.sends, wantSends) || !reflect.DeepEqual(up.owed, wantOwed) {
		t.Fatalf("uplink sends %v with %v owed, want %v with %v", up.sends, up.owed, wantSends, wantOwed)
	}
	if _, _, completions := spine.Stats(); completions != 4 {
		t.Fatalf("spine completed %d chunks, want 4", completions)
	}
	if got := push.waitChunks(t, 4); !reflect.DeepEqual(got, []uint32{0, 1, 3, 2}) {
		t.Fatalf("finals pushed for chunks %v, want [0 1 3 2]", got)
	}
	// Every slot went final: a worker's duplicate replays the tree-wide sum.
	if ds := handle(leaf, 0, EncodeAddProfile(0, 2, 0, core.DefaultProfile, []float32{1})); !delivered(ds, MsgResult) {
		t.Fatalf("chunk 2 has no final RESULT to replay: %+v", ds)
	}
}

// TestLeafZeroRetriesOutlastsLateParent: a leaf built with the zero
// UplinkConfig.Retries runs the default budget, so a parent that misses one
// uplink timeout (the first datagram is dropped) costs a retransmit, not
// the job.
func TestLeafZeroRetriesOutlastsLateParent(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	_, leaf, _, push := dropOnceLeaf(t, cfg)
	handle(leaf, 0, EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1}))
	push.waitChunks(t, 1)
	if ph := leaf.JobPhaseOf(0); ph != PhaseAdmitted {
		t.Fatalf("leaf job %v after one late parent round, want admitted", ph)
	}
	if n := leaf.UplinkRetransmits(0); n != 1 {
		t.Fatalf("%d uplink retransmits, want 1", n)
	}
}

// TestUplinkRequiresControlAndPush: a leaf admits every job at its parent
// and fans every final down through its Pusher, so NewSwitch refuses an
// Uplink without either. A negative Timeout means the default.
func TestUplinkRequiresControlAndPush(t *testing.T) {
	spine, err := NewSwitch(Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()})
	if err != nil {
		t.Fatal(err)
	}
	defer spine.Close()
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: spine.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	leafCfg := func(mutate func(*UplinkConfig)) Config {
		u := &UplinkConfig{Fabric: fab, Leaves: 1, Control: SwitchControl{Parent: spine}, Push: &pushLog{}}
		mutate(u)
		return Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch(), Uplink: u}
	}
	if _, err := NewSwitch(leafCfg(func(u *UplinkConfig) { u.Control = nil })); err == nil {
		t.Error("leaf without a ParentControl accepted")
	}
	if _, err := NewSwitch(leafCfg(func(u *UplinkConfig) { u.Push = nil })); err == nil {
		t.Error("leaf without a Pusher accepted")
	}
	leaf, err := NewSwitch(leafCfg(func(u *UplinkConfig) { u.Timeout = -time.Second }))
	if err != nil {
		t.Fatalf("complete leaf config refused: %v", err)
	}
	leaf.Close()
}

// TestTreeAdmitNegotiation pins the admission handshake: a leaf whose
// profile disagrees with the job live at the parent must be refused before
// any local state moves, and a matching profile joins the live parent
// incarnation (echoing its epoch).
func TestTreeAdmitNegotiation(t *testing.T) {
	bf16 := core.NumericProfile{Format: core.FormatBF16, Guard: 2, Rounding: core.RoundingRNE}
	spineCfg := Config{Workers: 2, Pool: 2, Modules: 1,
		Profiles: []core.NumericProfile{bf16},
		Mode:     core.ModeApprox, Arch: pisa.BaseArch()}
	spine, err := NewSwitch(spineCfg)
	if err != nil {
		t.Fatal(err)
	}
	spineFab, err := transport.NewMemory(transport.MemoryConfig{
		Workers: spineCfg.Ports(), BatchHandler: spine.HandleBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spine.Close()

	leafCfg := Config{Workers: 2, Pool: 2, Modules: 1,
		Mode: core.ModeApprox, Arch: pisa.BaseArch(),
		Uplink: &UplinkConfig{Fabric: spineFab, LeafID: 0, Leaves: 2,
			Control: SwitchControl{Parent: spine}, Push: &pushLog{}},
	}
	// Default f32 profile vs the parent's live bf16 job: refused at
	// construction, before the leaf handles a packet.
	if _, err := NewSwitch(leafCfg); !errors.Is(err, ErrBadProfile) {
		t.Fatalf("profile-mismatched leaf admitted: %v", err)
	}
	// Matching profile joins the live incarnation.
	leafCfg.Profiles = []core.NumericProfile{bf16}
	leaf, err := NewSwitch(leafCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	if st, _ := leaf.JobStats(0); st.Profile != bf16 {
		t.Errorf("leaf runs %v, want %v", st.Profile, bf16)
	}
	if spine.JobPhaseOf(0) != PhaseAdmitted {
		t.Error("negotiation disturbed the parent's live job")
	}
}

// TestResultRunRoundTrip pins the run-reply codec: splice, decode, and the
// malformed shapes a hostile peer could send.
func TestResultRunRoundTrip(t *testing.T) {
	prof := core.DefaultProfile
	// Build cached-RESULT-shaped items the way the switch does.
	mk := func(chunk uint32, vals []float32, ovf bool) []byte {
		pkt := make([]byte, resultBytes(len(vals), prof))
		putHeader(pkt, MsgResult, 3, chunk)
		for i, v := range vals {
			prof.PutValue(pkt[hdrBytes+4*i:], v)
		}
		if ovf {
			pkt[hdrBytes+4*len(vals)] = 1
		}
		return pkt
	}
	r0, r1 := mk(7, []float32{1.5, -2}, false), mk(8, []float32{0.25, 16}, true)
	run := encodeResultRun(3, 7, [][]byte{r0, r1})
	job, start, vals, ovfs, err := DecodeResultRun(run, 2, prof)
	if err != nil {
		t.Fatal(err)
	}
	if job != 3 || start != 7 || len(vals) != 2 {
		t.Fatalf("decoded job=%d start=%d n=%d", job, start, len(vals))
	}
	if vals[0][0] != 1.5 || vals[0][1] != -2 || vals[1][0] != 0.25 || vals[1][1] != 16 {
		t.Errorf("values corrupted: %v", vals)
	}
	if ovfs[0] || !ovfs[1] {
		t.Errorf("overflow flags corrupted: %v", ovfs)
	}
	for _, bad := range [][]byte{
		run[:5],                                // truncated header
		run[:len(run)-1],                       // truncated last item
		append(append([]byte{}, run...), 0xaa), // trailing byte
		encodeResultRun(3, 7, nil),             // zero items
	} {
		if _, _, _, _, err := DecodeResultRun(bad, 2, prof); err == nil {
			t.Errorf("malformed run of %d bytes accepted", len(bad))
		}
	}
}
