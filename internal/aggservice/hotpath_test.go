package aggservice

import (
	"bytes"
	"encoding/binary"
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

// TestHandleBatchAllocations gates the switch side of the hot path on both
// aggregator backends: an ADD batch that completes nothing allocates
// nothing (validate, shard lock round and the SetInto pass that binds each
// chunk all run on pooled or replica-owned scratch), and a completing batch
// (the second worker's AddInto passes) allocates
// only what outlives the call — each chunk's cached RESULT and the run
// reply that carries consecutive ones.
func TestHandleBatchAllocations(t *testing.T) {
	for name, prof := range map[string]core.NumericProfile{
		"pipeline":    core.DefaultProfile,
		"accumulator": {Format: core.FormatBF16},
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
		allocgate.AtMost(t, name+": completing batch (per 8 chunks)", 2*n, func() {
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
		allocgate.AtMost(t, name+": completing single chunk", 2, func() {
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

// TestPipelinePassesPerChunk pins the pass count of the slot protocol as an
// exact number, not a timing: every contribution costs one pipeline pass and
// nothing else does — the first ADD of a chunk binds its slot by overwrite
// instead of spending a read-reset pass first — and only the contribution
// that completes a chunk emits, the others being absorbed (pisa.Absorb).
// Retransmits, replays and refused binds never reach the pipeline, so the
// counts do not depend on scheduling.
func TestPipelinePassesPerChunk(t *testing.T) {
	const n = 64 // chunks (Modules is 1)

	t.Run("flat", func(t *testing.T) {
		cfg := Config{Workers: 2, Pool: 4, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sw.Close()
		passes := countPasses(t, sw, 0)
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
		if got, emitted := passes(); got != 2*n || emitted != n {
			t.Fatalf("%d pipeline passes, %d emitted for %d two-worker chunks, want %d and %d", got, emitted, n, 2*n, n)
		}
	})

	// One worker under each of two leaves: a chunk costs one pass per leaf
	// (each leaf's only contribution binds and completes its slot, so both
	// emit) and two at the spine, one absorbed and one emitted.
	t.Run("tree", func(t *testing.T) {
		leafCfg := Config{Workers: 1, Pool: 4, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
		spineCfg := leafCfg
		spineCfg.Workers = 2
		spine, leaves, fabs := buildTree(t, leafCfg, spineCfg, 2, 0, 1, 0, -1)
		counts := []func() (uint64, uint64){countPasses(t, spine, 0)}
		for _, l := range leaves {
			counts = append(counts, countPasses(t, l, 0))
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
			t.Fatalf("%d pipeline passes, %d emitted for %d chunks through 2 leaves and a spine, want %d and %d",
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

// TestSendVecReusesItsArena covers the worker's send path: encoding a full
// batch and flushing it allocates nothing per chunk, a re-encoded chunk is
// byte-identical however often the arena was rewound in between, and the
// vector's tail chunk is zero-padded even though its value buffer last
// held a full chunk.
func TestSendVecReusesItsArena(t *testing.T) {
	const modules, batch, pool = 3, 8, 4
	prof := core.NumericProfile{Format: core.FormatBF16}
	vec := make([]float32, modules*40+1) // 41 chunks, the last one a single value
	for i := range vec {
		vec[i] = float32(i%97) * 0.25
	}
	sv := newSendVec(0, 7, prof, modules, batch, pool, vec)
	fab := &nullFabric{}

	sv.add(5)
	first := append([]byte(nil), sv.msgs[0]...)
	if want := EncodeAddProfile(0, 5, 7, prof, vec[15:18]); !bytes.Equal(first, want) {
		t.Fatalf("chunk 5 encoded % x, want % x", first, want)
	}
	sv.reset()
	for c := 6; c < 6+3*pool; c++ { // ≥ 2·Pool further chunks through the arena
		sv.add(c)
		if len(sv.msgs) == batch {
			fab.SendBatch(0, sv.msgs)
			sv.reset()
		}
	}
	sv.add(5) // the retransmit
	if again := sv.msgs[len(sv.msgs)-1]; !bytes.Equal(again, first) {
		t.Errorf("chunk 5 re-encoded % x, first % x", again, first)
	}
	sv.add(40)
	if got, want := sv.msgs[len(sv.msgs)-1], EncodeAddProfile(0, 40, 7, prof, []float32{vec[120], 0, 0}); !bytes.Equal(got, want) {
		t.Errorf("tail chunk encoded % x, want % x", got, want)
	}
	for i := 0; i+1 < len(sv.msgs); i++ {
		if bytes.Equal(sv.msgs[i], sv.msgs[i+1]) {
			t.Errorf("messages %d and %d share bytes", i, i+1)
		}
	}
	sv.reset()

	c := 0
	allocgate.AtMost(t, "send path (per 8-chunk batch)", 0, func() {
		for i := 0; i < batch; i++ {
			sv.add(c % 41)
			c++
		}
		if err := fab.SendBatch(0, sv.msgs); err != nil {
			t.Fatal(err)
		}
		sv.reset()
	})
}

// TestSendVecHoldsAWholeWindow: the largest vector Reduce builds — Batch−1
// ADDs left below the flush threshold by earlier messages of a receive, plus
// one reply that frees the whole window — fits the arena newSendVec sized,
// so not even the first such vector grows it, and a stream of them
// allocates nothing.
func TestSendVecHoldsAWholeWindow(t *testing.T) {
	const modules, batch, pool, chunks = 3, 8, 64, 200
	vec := make([]float32, modules*chunks)
	for i := range vec {
		vec[i] = float32(i)
	}
	sv := newSendVec(0, 0, core.DefaultProfile, modules, batch, pool, vec)
	arena, msgs := cap(sv.arena), cap(sv.msgs)
	fab := &nullFabric{}
	c := 0
	send := func() {
		for i := 0; i < batch-1+pool; i++ {
			sv.add(c % chunks)
			c++
		}
		if err := fab.SendBatch(0, sv.msgs); err != nil {
			t.Fatal(err)
		}
		sv.reset()
	}
	send()
	if cap(sv.arena) != arena || cap(sv.msgs) != msgs {
		t.Fatalf("a %d-ADD vector grew the arena from %d to %d bytes and the vector from %d to %d",
			batch-1+pool, arena, cap(sv.arena), msgs, cap(sv.msgs))
	}
	allocgate.AtMost(t, "send path (per (Batch-1)+Pool vector)", 0, send)
}

// TestCachedResultSurvivesScratchReuse is the aliasing regression for the
// switch: a completed chunk's cached RESULT is a packet of its own, not a
// view of the pooled batch scratch, the aggregator's Result or the pipeline
// replica's deparse buffer. Complete chunk 0, push ≥ 2·Pool further chunks
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
