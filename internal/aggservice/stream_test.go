package aggservice

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// A job incarnation serves one chunk stream: every Reduce continues where
// the last one stopped on the job's chunk clock, which wraps at the span.
// These tests pin that across back-to-back reduces, across the wrap, and at
// the switch's slot comparison itself.

// streamVecs is round r's gradients for n workers: the dyadic grid of
// gridVecs shifted per round, so a reduce that returned an earlier round's
// sums would be caught.
func streamVecs(n, vecLen, r int) [][]float32 {
	vecs := make([][]float32, n)
	for w := range vecs {
		vecs[w] = make([]float32, vecLen)
		for i := range vecs[w] {
			vecs[w][i] = float32((w*131+i*7+r*17)%257-128) / 1024
		}
	}
	return vecs
}

// hostSum is the exact elementwise sum of grid vectors: a few of them add
// exactly in f32, whatever the order.
func hostSum(vecs [][]float32) []float32 {
	sum := make([]float32, len(vecs[0]))
	for _, v := range vecs {
		for i, x := range v {
			sum[i] += x
		}
	}
	return sum
}

// reduceAll runs one Reduce on every worker concurrently.
func reduceAll(workers []*Worker, vecs [][]float32) ([][]float32, error) {
	out := make([][]float32, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = w.Reduce(vecs[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return out, nil
}

// wantSums checks every worker's result against the host sum bit for bit.
func wantSums(t *testing.T, name string, got [][]float32, vecs [][]float32) {
	t.Helper()
	want := hostSum(vecs)
	for w, g := range got {
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("%s: worker %d element %d = %v, want %v", name, w, i, g[i], want[i])
			}
		}
	}
}

// flatStream is a flat switch over a Memory fabric with one Worker per
// port, built once: the Workers carry the job's chunk clock.
func flatStream(t *testing.T, cfg Config) []*Worker {
	t.Helper()
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Workers, BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fab.Close()
		sw.Close()
	})
	workers := make([]*Worker, cfg.Workers)
	for w := range workers {
		workers[w] = NewWorker(w, fab, cfg)
		workers[w].Timeout = 50 * time.Millisecond
		workers[w].Retries = 20
	}
	return workers
}

// treeStream is nLeaves one-worker leaves under one spine, with the leaves'
// Workers built once.
func treeStream(t *testing.T, pool, nLeaves int) []*Worker {
	t.Helper()
	leafCfg := Config{Workers: 1, Pool: pool, Modules: 2, Shards: 2,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	spineCfg := leafCfg
	spineCfg.Workers = nLeaves
	_, _, fabs := buildTree(t, leafCfg, spineCfg, nLeaves, 0, 1, 0, -1)
	workers := make([]*Worker, nLeaves)
	for li := range workers {
		workers[li] = NewWorker(0, fabs[li], leafCfg)
		workers[li].Timeout = 50 * time.Millisecond
		workers[li].Retries = 20
	}
	return workers
}

// TestReduceContinuesStream: back-to-back Reduces on one incarnation each
// get their own sums. A second short reduce must not be answered from the
// first one's result cache, and a second long one must not stall on slots
// the first left bound; then 100 reduces of varying length, flat and
// through a tree, are each bit-exact against the host sum.
func TestReduceContinuesStream(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 8, Modules: 1, Shards: 2, Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	fill := func(n int, v float32) [][]float32 {
		vecs := make([][]float32, cfg.Workers)
		for w := range vecs {
			vecs[w] = make([]float32, n)
			for i := range vecs[w] {
				vecs[w][i] = v
			}
		}
		return vecs
	}

	for _, n := range []int{4, 40} {
		workers := flatStream(t, cfg)
		for r, v := range []float32{1, 5} {
			vecs := fill(n, v)
			got, err := reduceAll(workers, vecs)
			if err != nil {
				t.Fatalf("%d elements, reduce %d: %v", n, r, err)
			}
			wantSums(t, fmt.Sprintf("%d elements, reduce %d", n, r), got, vecs)
		}
	}

	for name, workers := range map[string][]*Worker{
		"flat": flatStream(t, Config{Workers: 2, Pool: 8, Modules: 2, Shards: 2, Mode: core.ModeFull, Arch: pisa.ExtendedArch()}),
		"tree": treeStream(t, 8, 2),
	} {
		t.Run(name, func(t *testing.T) {
			for r := 0; r < 100; r++ {
				vecs := streamVecs(len(workers), 1+r*7%45, r) // 1..23 chunks, rarely a whole window
				got, err := reduceAll(workers, vecs)
				if err != nil {
					t.Fatalf("reduce %d: %v", r, err)
				}
				wantSums(t, fmt.Sprintf("reduce %d", r), got, vecs)
			}
		})
	}
}

// TestChunkClockWrap starts the job's stream a few chunks below the span —
// for Pool 3, whose span is the largest multiple of 6 below 2³², and for
// Pool 8, whose span is 2³² — and reduces across the wrap, flat and through
// a tree, bit-exact; the stream then carries on from its wrapped position.
func TestChunkClockWrap(t *testing.T) {
	for _, pool := range []int{3, 8} {
		span := Config{Pool: pool}.span()
		for name, build := range map[string]func() []*Worker{
			"flat": func() []*Worker {
				return flatStream(t, Config{Workers: 2, Pool: pool, Modules: 2, Shards: 2, Mode: core.ModeFull, Arch: pisa.ExtendedArch()})
			},
			"tree": func() []*Worker { return treeStream(t, pool, 2) },
		} {
			t.Run(fmt.Sprintf("pool%d/%s", pool, name), func(t *testing.T) {
				workers := build()
				for _, w := range workers {
					w.next = span - 5
				}
				const chunks = 13 // 5 below the wrap, 8 above it
				for r := 0; r < 3; r++ {
					vecs := streamVecs(len(workers), 2*chunks, r)
					got, err := reduceAll(workers, vecs)
					if err != nil {
						t.Fatalf("reduce %d: %v", r, err)
					}
					wantSums(t, fmt.Sprintf("reduce %d", r), got, vecs)
				}
				for i, w := range workers {
					if want := int64(3*chunks - 5); w.next != want {
						t.Fatalf("worker %d ends at chunk %d, want %d", i, w.next, want)
					}
				}
			})
		}
	}
}

// TestSlotSerialComparison pins the slot protocol at the span boundary of a
// Pool-3 job (span 2³²−4): against a slot's bound chunk, the same chunk
// replays the cached RESULT, the slot's next chunk across the wrap binds,
// and its previous chunk across the wrap drops; chunk ids at or beyond the
// span are malformed.
func TestSlotSerialComparison(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 3, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	span := cfg.span()
	if span != 1<<32-4 {
		t.Fatalf("Pool 3 span %d, want 2³²−4", span)
	}
	add := func(chunk int64, v float32) []byte {
		return EncodeAddProfile(0, uint32(chunk), 0, core.DefaultProfile, []float32{v})
	}
	last := span - 1 // slot 5's last chunk before the wrap; 5 is its first after it
	for _, tc := range []struct {
		name        string
		bound, sent int64 // the slot's chunk (completed by both workers), then worker 0's ADD
		want        string
	}{
		{"same version before the wrap", last, last, "replay"},
		{"same version after the wrap", 5, 5, "replay"},
		{"newer across the wrap", last, 5, "bind"},
		{"newer, one slot period", last - 6, last, "bind"},
		{"newer, just under half the span", 5, 5 + span/2 - 6, "bind"},
		{"older across the wrap", 5, last, "drop"},
		{"older, one slot period", last, last - 6, "drop"},
		{"older, half the span", 5, 5 + span/2, "drop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := NewSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
			if slot := sw.slotOf(uint32(tc.bound)); slot != sw.slotOf(uint32(tc.sent)) {
				t.Fatalf("chunks %d and %d map to different slots", tc.bound, tc.sent)
			}
			handle(sw, 0, add(tc.bound, 1))
			if ds := handle(sw, 1, add(tc.bound, 2)); len(ds) != 1 {
				t.Fatalf("binding chunk %d delivered %d packets, want its RESULT", tc.bound, len(ds))
			}
			before, _ := sw.JobStats(0)
			ds := handle(sw, 0, add(tc.sent, 4))
			after, _ := sw.JobStats(0)
			st := sw.slotAt(sw.current(0), sw.slotOf(uint32(tc.sent)))
			var got string
			switch {
			case len(ds) == 1 && after.CacheHits == before.CacheHits+1:
				got = "replay"
				if _, chunk, _, _, err := decodeResultValues(ds[0].Packet, 1, core.DefaultProfile); err != nil || int64(chunk) != tc.bound {
					t.Fatalf("replayed chunk %d (%v), want %d", chunk, err, tc.bound)
				}
			case len(ds) == 0 && after.Outstanding == 1 && st.chunk == tc.sent:
				got = "bind"
			case len(ds) == 0 && after == before && st.chunk == tc.bound:
				got = "drop"
			default:
				t.Fatalf("deliveries %d, stats %+v → %+v, slot chunk %d", len(ds), before, after, st.chunk)
			}
			if got != tc.want {
				t.Fatalf("chunk %d against bound %d: %s, want %s", tc.sent, tc.bound, got, tc.want)
			}
		})
	}

	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for _, chunk := range []int64{span, span + 3, 1<<32 - 1} {
		before := sw.Rejects().Malformed
		if ds := handle(sw, 0, add(chunk, 1)); len(ds) != 0 || sw.Rejects().Malformed != before+1 {
			t.Fatalf("chunk %d at or past the span: %d deliveries, malformed %d → %d", chunk, len(ds), before, sw.Rejects().Malformed)
		}
	}
	if st, _ := sw.JobStats(0); st.Outstanding != 0 || st.Adds != 0 {
		t.Fatalf("out-of-span chunks reached a slot: %+v", st)
	}
}

// auditChunkClock checks that every bound slot of every live training
// incarnation holds a chunk inside the span that maps to that slot.
func auditChunkClock(t *testing.T, s *Switch) {
	t.Helper()
	for j := 0; j < s.ncap; j++ {
		inc := s.current(j)
		if inc == nil || inc.banks == nil {
			continue
		}
		for slot := 0; slot < 2*s.cfg.Pool; slot++ {
			sh := s.shards[s.shardOf(j, slot)]
			sh.mu.Lock()
			c := s.slotAt(inc, slot).chunk
			sh.mu.Unlock()
			if c != -1 && (c < 0 || c >= s.span || s.slotOf(uint32(c)) != slot) {
				t.Fatalf("job %d slot %d bound to chunk %d (span %d)", j, slot, c, s.span)
			}
		}
	}
}
