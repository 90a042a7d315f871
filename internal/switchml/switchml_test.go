package switchml

import (
	"math"
	"sync"
	"testing"
	"time"

	"fpisa/internal/gradients"
	"fpisa/internal/transport"
)

func runReduction(t *testing.T, cfg Config, vecs [][]float32, loss float64, seed int64) ([][]float32, []*Worker, *Switch) {
	t.Helper()
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{
		Workers: cfg.Workers, BatchHandler: sw.HandleBatch,
		UplinkLoss: loss, DownlinkLoss: loss, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]float32, cfg.Workers)
	workers := make([]*Worker, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		workers[w] = &Worker{ID: w, Fabric: fab, Cfg: cfg, Timeout: 30 * time.Millisecond, Retries: 500}
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
	return results, workers, sw
}

func TestReduceWithinQuantizationError(t *testing.T) {
	cfg := Config{Workers: 4, Pool: 2, Elems: 8}
	const n = 50
	g := gradients.NewGenerator(gradients.VGG19, 21)
	vecs := g.WorkerGradients(cfg.Workers, n)
	results, _, _ := runReduction(t, cfg, vecs, 0, 1)

	for i := 0; i < n; i++ {
		var want float64
		for w := range vecs {
			want += float64(vecs[w][i])
		}
		got := float64(results[0][i])
		// Quantization error: W * 2^-scale; scale is per chunk, at least
		// covering the chunk's max exponent.
		if math.Abs(got-want) > 1e-4+1e-3*math.Abs(want) {
			t.Fatalf("elem %d = %g, want %g", i, got, want)
		}
	}
	// All workers see identical results.
	for w := 1; w < cfg.Workers; w++ {
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatal("worker results diverge")
			}
		}
	}
}

func TestTwoRoundsPerChunk(t *testing.T) {
	// The protocol-structure fact behind Fig. 10: SwitchML sends two
	// packets per chunk per worker (exponent + data); FPISA sends one.
	cfg := Config{Workers: 2, Pool: 2, Elems: 4}
	vecs := [][]float32{make([]float32, 16), make([]float32, 16)}
	for i := range vecs[0] {
		vecs[0][i], vecs[1][i] = float32(i), float32(i)*2
	}
	_, workers, sw := runReduction(t, cfg, vecs, 0, 2)
	expPkts, dataPkts, _ := sw.Stats()
	nChunks := uint64(4)
	if expPkts != nChunks*2 || dataPkts != nChunks*2 {
		t.Errorf("exp=%d data=%d, want %d each", expPkts, dataPkts, nChunks*2)
	}
	for _, w := range workers {
		if w.SentPackets != nChunks*2 {
			t.Errorf("worker sent %d packets, want %d (two rounds per chunk)", w.SentPackets, nChunks*2)
		}
		if w.QuantizeOps == 0 {
			t.Error("no quantization work recorded")
		}
	}
}

func TestReduceUnderPacketLoss(t *testing.T) {
	cfg := Config{Workers: 3, Pool: 2, Elems: 4}
	const n = 24
	g := gradients.NewGenerator(gradients.LSTM, 5)
	vecs := g.WorkerGradients(cfg.Workers, n)
	lossy, _, _ := runReduction(t, cfg, vecs, 0.15, 11)
	clean, _, _ := runReduction(t, cfg, vecs, 0, 12)
	for i := 0; i < n; i++ {
		// Integer aggregation is order-independent: identical results.
		if lossy[0][i] != clean[0][i] {
			t.Fatalf("elem %d: lossy %g vs clean %g", i, lossy[0][i], clean[0][i])
		}
	}
}

func TestScaleAdaptsToChunkMagnitude(t *testing.T) {
	// Chunks with very different magnitudes get different scales and stay
	// accurate — SwitchML's per-chunk adaptive quantization.
	cfg := Config{Workers: 2, Pool: 1, Elems: 4}
	vecs := [][]float32{
		{1e-6, 2e-6, -1e-6, 3e-6 /* tiny chunk */, 100, 200, -50, 25},
		{2e-6, 1e-6, -2e-6, 1e-6, 300, 100, -150, 75},
	}
	results, _, _ := runReduction(t, cfg, vecs, 0, 3)
	for i := range vecs[0] {
		want := float64(vecs[0][i]) + float64(vecs[1][i])
		rel := math.Abs(float64(results[0][i])-want) / math.Max(math.Abs(want), 1e-9)
		if rel > 1e-3 {
			t.Errorf("elem %d: %g vs %g (rel %g)", i, results[0][i], want, rel)
		}
	}
}

// stallFabric signals each receive timeout worker 0 sees on stalled.
type stallFabric struct {
	transport.Fabric
	stalled chan struct{}
}

func (f stallFabric) RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error) {
	n, err := f.Fabric.RecvBatch(worker, bufs, timeout)
	if worker == 0 && err == transport.ErrTimeout {
		select {
		case f.stalled <- struct{}{}:
		default: // nobody is waiting for this stall
		}
	}
	return n, err
}

// TestNonPositiveRetryBudgetMeansDefault pins that a Timeout or Retries at
// or below zero means the default, as on aggservice.Worker: a worker with
// Retries -1 keeps retransmitting through stalls until a late peer joins,
// instead of giving up at the first stall.
func TestNonPositiveRetryBudgetMeansDefault(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{
		{"retries-1", 10 * time.Millisecond},
		{"timeout-1-retries-1", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 2, Pool: 1, Elems: 4}
			sw, err := NewSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Workers, BatchHandler: sw.HandleBatch})
			if err != nil {
				t.Fatal(err)
			}
			fab := stallFabric{Fabric: mem, stalled: make(chan struct{})}
			early := &Worker{ID: 0, Fabric: fab, Cfg: cfg, Timeout: tc.timeout, Retries: -1}
			var got []float32
			done := make(chan error, 1)
			go func() {
				var err error
				got, err = early.Reduce([]float32{1, 2, 3, 4})
				done <- err
			}()
			for stalls := 0; stalls < 2; {
				select {
				case <-fab.stalled:
					stalls++
				case err := <-done:
					t.Fatalf("worker with Retries -1 quit after %d stalls, before its peer started: %v", stalls, err)
				}
			}
			late := &Worker{ID: 1, Fabric: fab, Cfg: cfg, Timeout: 10 * time.Millisecond, Retries: 20}
			if _, err := late.Reduce([]float32{5, 6, 7, 8}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			for i, want := range []float32{6, 8, 10, 12} {
				if got[i] != want {
					t.Fatalf("elem %d = %g, want %g", i, got[i], want)
				}
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	for _, c := range []Config{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := NewSwitch(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}
