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

func TestConfigValidation(t *testing.T) {
	for _, c := range []Config{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := NewSwitch(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}
