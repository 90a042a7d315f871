package aggservice

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"fpisa/internal/allocgate"
	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// addBatch is a reusable vector of n ADD packets from one worker; retarget
// rewrites the chunk ids in place so a measured loop encodes nothing.
type addBatch [][]byte

func newAddBatch(n int, prof core.NumericProfile, vals []float32) addBatch {
	b := make(addBatch, n)
	for i := range b {
		b[i] = EncodeAddProfile(0, 0, 0, prof, vals)
	}
	return b
}

func (b addBatch) retarget(first uint32) {
	for i, pkt := range b {
		binary.BigEndian.PutUint32(pkt[4:], first+uint32(i))
	}
}

// TestHandleBatchAllocations gates the switch side of the hot path under a
// 4-byte and a 2-byte profile: an ADD batch allocates nothing, whether it
// completes nothing (validate, shard lock round and the SetInto that binds
// each chunk all run on pooled or bank-owned state) or completes its chunks
// (the second worker's AddInto calls write each RESULT into the delivery
// list's arena and the slot's region, and the run reply that carries
// consecutive ones is built in the arena too).
func TestHandleBatchAllocations(t *testing.T) {
	for name, prof := range map[string]core.NumericProfile{
		"f32":  core.DefaultProfile,
		"bf16": {Format: core.FormatBF16},
	} {
		cfg := Config{
			Workers: 2, Pool: 64, Modules: 3, Shards: 2, Mode: core.ModeApprox, Arch: pisa.ExtendedArch(),
			Profiles: []core.NumericProfile{prof},
		}
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 8
		w0 := newAddBatch(n, prof, []float32{1, 2, 3})
		w1 := newAddBatch(n, prof, []float32{0.5, 0.25, 4})
		one0, one1 := w0[:1], w1[:1]
		var dl transport.DeliveryList
		chunk := uint32(0)

		allocgate.AtMost(t, name+": non-completing batch", 0, func() {
			w0.retarget(chunk)
			chunk += n
			sw.HandleBatch(0, w0, &dl)
			if dl.Len() != 0 {
				t.Fatalf("half-aggregated chunks delivered %d packets", dl.Len())
			}
		})
		allocgate.AtMost(t, name+": completing batch", 0, func() {
			w0.retarget(chunk)
			w1.retarget(chunk)
			chunk += n
			sw.HandleBatch(0, w0, &dl)
			sw.HandleBatch(1, w1, &dl)
			if dl.Len() != 1 { // one broadcast run reply
				t.Fatalf("completing batch delivered %d packets", dl.Len())
			}
			dl.Reset()
		})
		allocgate.AtMost(t, name+": completing single chunk", 0, func() {
			one0.retarget(chunk)
			one1.retarget(chunk)
			chunk++
			sw.HandleBatch(0, one0, &dl)
			sw.HandleBatch(1, one1, &dl)
			if dl.Len() != 1 {
				t.Fatalf("completing chunk delivered %d packets", dl.Len())
			}
			dl.Reset()
		})
		if _, _, completions := sw.Stats(); completions == 0 {
			t.Fatalf("%s: nothing completed", name)
		}
		sw.Close()
	}
}

// TestAggregatorOpsPerChunk pins the aggregator cost of the slot protocol as
// an exact number, not a timing: every contribution costs one aggregator
// operation and nothing else does — the first ADD of a chunk binds its slot
// with SetInto instead of spending a ReadResetInto first — and only the
// contribution that completes a chunk passes an out, the others discarding
// the response unbuilt. Retransmits, replays and refused binds never reach
// the aggregator, so the counts do not depend on scheduling.
func TestAggregatorOpsPerChunk(t *testing.T) {
	const n = 64 // chunks (Modules is 1)

	t.Run("flat", func(t *testing.T) {
		cfg := Config{Workers: 2, Pool: 4, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sw.Close()
		ops := countOps(sw, 0)
		fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Workers, BatchHandler: sw.HandleBatch})
		if err != nil {
			t.Fatal(err)
		}
		defer fab.Close()
		vecs := gridVecs(cfg.Workers, n)
		var wg sync.WaitGroup
		for w := range vecs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := NewWorker(w, fab, cfg).Reduce(vecs[w]); err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}(w)
		}
		wg.Wait()
		if got, emitted := ops(); got != 2*n || emitted != n {
			t.Fatalf("%d aggregator operations, %d with an out, for %d two-worker chunks, want %d and %d", got, emitted, n, 2*n, n)
		}
	})

	// One worker under each of two leaves: a chunk costs one operation per
	// leaf (each leaf's only contribution binds and completes its slot, so
	// both write a response) and two at the spine, one of them with an out.
	t.Run("tree", func(t *testing.T) {
		leafCfg := Config{Workers: 1, Pool: 4, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
		spineCfg := leafCfg
		spineCfg.Workers = 2
		spine, leaves, fabs := buildTree(t, leafCfg, spineCfg, 2, 0, 1, 0, -1)
		counts := []func() (uint64, uint64){countOps(spine, 0)}
		for _, l := range leaves {
			counts = append(counts, countOps(l, 0))
		}
		_, errs := treeReduce(leaves, fabs, leafCfg, 0, []uint8{0, 0}, gridVecs(len(leaves), n),
			50*time.Millisecond, 500)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("tree worker %d: %v", i, err)
			}
		}
		var got, emitted uint64
		for _, c := range counts {
			r, e := c()
			got, emitted = got+r, emitted+e
		}
		if got != 4*n || emitted != 3*n {
			t.Fatalf("%d aggregator operations, %d with an out, for %d chunks through 2 leaves and a spine, want %d and %d",
				got, emitted, n, 4*n, 3*n)
		}
	})
}

// nullFabric accepts and discards send vectors.
type nullFabric struct{ sent int }

func (f *nullFabric) SendBatch(_ int, pkts [][]byte) error { f.sent += len(pkts); return nil }
func (f *nullFabric) RecvBatch(int, [][]byte, time.Duration) (int, error) {
	return 0, transport.ErrTimeout
}
func (f *nullFabric) Close() error { return nil }

// TestSendVecReusesItsArena covers the worker's send path on its window
// entries: a chunk is encoded once, into its entry; an owed chunk's resend
// is byte-identical after 2·Pool−1 further chunks went through the other
// entries; the vector's tail chunk is zero-padded even though its entry last
// held a full chunk; and a full window offered and then resent allocates
// nothing.
func TestSendVecReusesItsArena(t *testing.T) {
	const modules, pool = 3, 8
	prof := core.NumericProfile{Format: core.FormatBF16}
	vec := make([]float32, modules*40+1) // 41 chunks, the last one a single value
	for i := range vec {
		vec[i] = float32(i%97) * 0.25
	}
	chunk := func(c int) []float32 { return vec[c*modules : min(len(vec), (c+1)*modules)] }
	w := NewWorker(0, &nullFabric{}, Config{Workers: 1, Pool: pool, Modules: modules, Mode: core.ModeApprox})
	w.Profile, w.Epoch = prof, 7
	w.rewind(w.Cfg.span(), 1)

	send := w.snd.offer(nil, 5, w.entry(5, chunk(5)), false)
	first := append([]byte(nil), send[0]...)
	if want := EncodeAddProfile(0, 5, 7, prof, vec[15:18]); !bytes.Equal(first, want) {
		t.Fatalf("chunk 5 encoded % x, want % x", first, want)
	}
	for c := 6; c < 5+2*pool; c++ { // every other entry
		w.snd.offer(nil, uint32(c), w.entry(uint32(c), chunk(c)), false)
	}
	resend, err := w.snd.onTimeout(nil)
	if err != nil || len(resend) != 2*pool || !bytes.Equal(resend[0], first) {
		t.Fatalf("resend of %d ADDs (%v) leads with % x, want chunk 5's first send % x", len(resend), err, resend[0], first)
	}
	for i := 0; i+1 < len(resend); i++ {
		if bytes.Equal(resend[i], resend[i+1]) {
			t.Errorf("resent ADDs %d and %d share bytes", i, i+1)
		}
	}
	w.entry(8, chunk(8))
	if got, want := w.entry(40, chunk(40)), EncodeAddProfile(0, 40, 7, prof, []float32{vec[120], 0, 0}); !bytes.Equal(got, want) {
		t.Errorf("tail chunk encoded % x, want % x", got, want)
	}

	fab := &nullFabric{}
	c := 0
	allocgate.AtMost(t, "send path (a Pool-chunk window offered, then resent)", 0, func() {
		w.rewind(w.Cfg.span(), 1)
		send := w.send
		for i := 0; i < pool; i++ {
			send = w.snd.offer(send, uint32(c), w.entry(uint32(c), chunk(c%41)), false)
			c++
		}
		if err := fab.SendBatch(0, send); err != nil {
			t.Fatal(err)
		}
		if send, err = w.snd.onTimeout(send[:0]); err != nil || len(send) != pool {
			t.Fatalf("resent %d ADDs (%v), want %d", len(send), err, pool)
		}
		if err := fab.SendBatch(0, send); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSendVecHoldsAWholeWindow: the largest vector Reduce builds — Pool
// ADDs, the initial window, a retransmit round of it or a received vector
// that frees it all — fits the send vector and window entries rewind sized,
// so not even the first such vector grows them, and a stream of them
// allocates nothing: for f32 and bf16 values at one and three modules.
func TestSendVecHoldsAWholeWindow(t *testing.T) {
	const pool, chunks = 64, 200
	for _, prof := range []core.NumericProfile{core.DefaultProfile, {Format: core.FormatBF16}} {
		for _, modules := range []int{1, 3} {
			vec := make([]float32, modules*chunks)
			for i := range vec {
				vec[i] = float32(i)
			}
			w := NewWorker(0, &nullFabric{}, Config{Workers: 1, Pool: pool, Modules: modules, Mode: core.ModeApprox})
			w.Profile = prof
			w.rewind(w.Cfg.span(), 1)
			win, vector := cap(w.win), cap(w.send)
			fab := &nullFabric{}
			c := 0
			round := func() {
				w.rewind(w.Cfg.span(), 1)
				send := w.send
				for i := 0; i < pool; i++ {
					k := c % chunks
					send = w.snd.offer(send, uint32(c), w.entry(uint32(c), vec[k*modules:(k+1)*modules]), false)
					c++
				}
				if err := fab.SendBatch(0, send); err != nil {
					t.Fatal(err)
				}
				send, _ = w.snd.onTimeout(send[:0])
				if err := fab.SendBatch(0, send); err != nil {
					t.Fatal(err)
				}
			}
			round()
			if cap(w.win) != win || cap(w.send) != vector {
				t.Fatalf("%v m%d: a %d-ADD vector grew the window entries from %d to %d bytes and the vector from %d to %d",
					prof, modules, pool, win, cap(w.win), vector, cap(w.send))
			}
			allocgate.AtMost(t, fmt.Sprintf("%v m%d send path (per Pool-ADD vector, sent and resent)", prof, modules), 0, round)
		}
	}
}

// TestCachedResultSurvivesScratchReuse is the aliasing regression for the
// switch: a completed chunk's final RESULT lives in its slot's own region,
// not in the pooled batch scratch or the aggregator's state. Complete chunk 0, push ≥ 2·Pool further chunks
// through the same shard (the rest of the job's own window and 2·Pool of a
// second tenant), then retransmit chunk 0: the replay must be the bytes
// first delivered.
func TestCachedResultSurvivesScratchReuse(t *testing.T) {
	const pool = 4
	cfg := Config{
		Workers: 2, Jobs: 2, Pool: pool, Modules: 3, Shards: 1,
		Mode: core.ModeApprox, Arch: pisa.ExtendedArch(),
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	complete := func(job int, chunk uint32, a, b []float32) []byte {
		t.Helper()
		handle(sw, cfg.Port(job, 0), EncodeAddProfile(job, chunk, 0, core.DefaultProfile, a))
		ds := handle(sw, cfg.Port(job, 1), EncodeAddProfile(job, chunk, 0, core.DefaultProfile, b))
		if len(ds) == 0 {
			t.Fatalf("job %d chunk %d did not complete", job, chunk)
		}
		// A RESULT, not a scheduler notice about a deferred bind.
		if _, c, _, _, err := DecodeResultProfile(ds[0].Packet, cfg.Modules, core.DefaultProfile); err != nil || c != chunk {
			t.Fatalf("job %d chunk %d: reply for chunk %d, %v", job, chunk, c, err)
		}
		return ds[0].Packet
	}
	delivered := complete(0, 0, []float32{1, 2, 3}, []float32{0.5, 0.25, 0.125})
	first := append([]byte(nil), delivered...)
	_, _, vals, _, err := DecodeResultProfile(first, cfg.Modules, core.DefaultProfile)
	if err != nil || vals[0] != 1.5 || vals[1] != 2.25 || vals[2] != 3.125 {
		t.Fatalf("chunk 0 result %v, %v", vals, err)
	}
	for c := uint32(1); c < pool; c++ { // the rest of job 0's window
		complete(0, c, []float32{100, 200, 300}, []float32{7, 8, 9})
	}
	// The other tenant, same shard: 2·Pool binds, exactly the round's budget
	// of a weight-1 job (drrQuantum), so none is deferred while job 0 still
	// holds unspent deficit and the test does not depend on the round's age.
	for c := uint32(0); c < 2*pool; c++ {
		complete(1, c, []float32{-1, -2, -3}, []float32{-4, -5, -6})
	}
	replay := handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1, 2, 3}))
	if len(replay) != 1 || !bytes.Equal(replay[0].Packet, first) {
		t.Fatalf("replayed %v, first delivered % x", replay, first)
	}
	if !bytes.Equal(delivered, first) {
		t.Errorf("the delivered packet itself changed to % x", delivered)
	}
}

// TestReduceTailChunkBitExact reduces vectors whose length is not a
// multiple of Modules on the 3-module extended pipeline: the sender's
// reused value buffer and arena, rewound dozens of times per reduce, must
// leave every element — the partial tail chunk included — bit-exact.
func TestReduceTailChunkBitExact(t *testing.T) {
	for _, n := range []int{3*200 + 1, 3*200 + 2} {
		cfg := Config{Workers: 2, Pool: 4, Modules: 3, Shards: 2, Mode: core.ModeApprox, Arch: pisa.ExtendedArch()}
		vecs := make([][]float32, cfg.Workers)
		for w := range vecs {
			vecs[w] = make([]float32, n)
			for i := range vecs[w] {
				// The 2^-6 dyadic grid: every two-worker sum is exact in
				// float32 in either arrival order.
				vecs[w][i] = float32((i*(w+3))%129-64) / 64
			}
		}
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Workers, BatchHandler: sw.HandleBatch})
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]float32, cfg.Workers)
		errs := make([]error, cfg.Workers)
		var wg sync.WaitGroup
		for w := range results {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w], errs[w] = NewWorker(w, fab, cfg).Reduce(vecs[w])
			}(w)
		}
		wg.Wait()
		for w, res := range results {
			if errs[w] != nil {
				t.Fatalf("n=%d worker %d: %v", n, w, errs[w])
			}
			if len(res) != n {
				t.Fatalf("n=%d worker %d: %d elements back", n, w, len(res))
			}
			for i, got := range res {
				if want := vecs[0][i] + vecs[1][i]; got != want {
					t.Fatalf("n=%d worker %d element %d: %g, want %g", n, w, i, got, want)
				}
			}
		}
		fab.Close()
		sw.Close()
	}
}

// TestDeliveryOutlivesSlotReuse: what the switch delivers is a copy in the
// handler's delivery list, never the slot's RESULT region. A completion's
// delivery, held in its list while a later chunk completes in the same
// slot and is replayed from it, keeps its bytes; so does the replay's
// delivery while the slot completes its next chunk.
func TestDeliveryOutlivesSlotReuse(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 1, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	// Chunks 0, 2 and 4 all bind slot 0 (Pool 1: two slots).
	add := func(dl *transport.DeliveryList, chunk uint32, v float32) []byte {
		t.Helper()
		sw.HandleBatch(0, [][]byte{EncodeAddProfile(0, chunk, 0, core.DefaultProfile, []float32{v})}, dl)
		ds := dl.Deliveries()
		if len(ds) == 0 {
			t.Fatalf("chunk %d: no delivery", chunk)
		}
		return ds[len(ds)-1].Packet
	}
	var first, second, third transport.DeliveryList
	done := add(&first, 0, 1.5)
	add(&second, 2, 2.5)
	replay := add(&second, 2, 2.5) // the duplicate replays from slot 0
	add(&third, 4, 4.5)
	if want := encodeResult(0, 0, core.DefaultProfile, []float32{1.5}, false); !bytes.Equal(done, want) {
		t.Errorf("chunk 0's delivery changed to % x, want % x", done, want)
	}
	if want := encodeResult(0, 2, core.DefaultProfile, []float32{2.5}, false); !bytes.Equal(replay, want) {
		t.Errorf("chunk 2's replay changed to % x, want % x", replay, want)
	}
}

// TestLeafOwedAddSurvivesArenaReuse: a leaf builds its uplink ADD in the
// handler's delivery arena, and its uplink sender owes a copy in the
// uplink window. Chunk 0 completes and goes up unanswered, the handler's
// list is reset, and chunk 1's ADD is built over the same arena bytes: the
// retransmit round still carries chunk 0's own ADD.
func TestLeafOwedAddSurvivesArenaReuse(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	spine, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := &tickParent{tick: make(chan struct{}), closed: make(chan struct{})}
	leafCfg := cfg
	leafCfg.Uplink = &UplinkConfig{Fabric: up, Leaves: 1, Control: SwitchControl{Parent: spine}, Push: &pushLog{}}
	leaf, err := NewSwitch(leafCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { leaf.Close(); up.Close() }()

	vals := []float32{1.5, -2.25}
	var dl transport.DeliveryList
	for c, v := range vals {
		dl.Reset()
		leaf.HandleBatch(0, [][]byte{EncodeAddProfile(0, uint32(c), 0, core.DefaultProfile, []float32{v})}, &dl)
	}
	u := leaf.current(0).up
	u.mu.Lock()
	resend, err := u.snd.onTimeout(nil)
	var got [][]byte
	for _, p := range resend {
		got = append(got, append([]byte(nil), p...))
	}
	u.mu.Unlock()
	if err != nil || len(got) != len(vals) {
		t.Fatalf("retransmit round of %d ADDs (%v), want %d", len(got), err, len(vals))
	}
	for c, v := range vals {
		if want := EncodeAddProfile(0, uint32(c), u.parentEpoch, core.DefaultProfile, []float32{v}); !bytes.Equal(got[c], want) {
			t.Errorf("owed ADD of chunk %d resent as % x, want % x", c, got[c], want)
		}
	}
}
