package aggservice

import (
	"math"
	"sync"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// handle drives one packet through HandleBatch and returns its deliveries:
// the one-packet-in/deliveries-out view most protocol tests want.
func handle(s *Switch, worker int, pkt []byte) []transport.Delivery {
	var dl transport.DeliveryList
	s.HandleBatch(worker, [][]byte{pkt}, &dl)
	return dl.Deliveries()
}

// runReduction drives W workers through one all-reduce over the in-memory
// fabric and returns each worker's result.
func runReduction(t *testing.T, cfg Config, vecs [][]float32, loss float64, seed int64) ([][]float32, *Switch, *transport.Memory) {
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
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &Worker{ID: w, Fabric: fab, Cfg: cfg, Timeout: 30 * time.Millisecond, Retries: 500}
			results[w], errs[w] = wk.Reduce(vecs[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return results, sw, fab
}

func TestReduceMatchesModel(t *testing.T) {
	cfg := Config{Workers: 4, Pool: 3, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	const n = 23
	vecs := make([][]float32, cfg.Workers)
	for w := range vecs {
		vecs[w] = make([]float32, n)
		for i := range vecs[w] {
			vecs[w][i] = float32(w+1) * float32(i+1) * 0.125
		}
	}
	results, sw, _ := runReduction(t, cfg, vecs, 0, 1)

	// Same-magnitude positive values: FPISA-A is exact here.
	for i := 0; i < n; i++ {
		var want float32
		for w := range vecs {
			want += vecs[w][i]
		}
		for w := range results {
			if math.Abs(float64(results[w][i]-want)) > 1e-4*float64(want) {
				t.Fatalf("worker %d elem %d = %g, want %g", w, i, results[w][i], want)
			}
		}
	}
	adds, dups, completions := sw.Stats()
	if adds != uint64(cfg.Workers)*uint64(n) {
		t.Errorf("adds = %d, want %d", adds, cfg.Workers*n)
	}
	if dups != 0 {
		t.Errorf("unexpected duplicates: %d", dups)
	}
	if completions != uint64(n) {
		t.Errorf("completions = %d, want %d", completions, n)
	}
}

func TestReduceUnderPacketLoss(t *testing.T) {
	cfg := Config{Workers: 3, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	const n = 30
	g := gradients.NewGenerator(gradients.VGG19, 77)
	vecs := g.WorkerGradients(cfg.Workers, n)

	lossy, _, fab := runReduction(t, cfg, vecs, 0.15, 42)
	sent, lostUp, lostDown, _ := fab.Stats()
	if lostUp == 0 && lostDown == 0 {
		t.Fatalf("loss injection did not fire (sent=%d)", sent)
	}

	clean, _, _ := runReduction(t, cfg, vecs, 0, 7)
	// Loss changes arrival order, so FPISA-A results may differ in low
	// bits; they must agree to aggregation accuracy.
	for w := range clean {
		for i := range clean[w] {
			diff := math.Abs(float64(lossy[w][i] - clean[w][i]))
			if diff > 1e-5+1e-3*math.Abs(float64(clean[w][i])) {
				t.Fatalf("worker %d elem %d: lossy %g vs clean %g", w, i, lossy[w][i], clean[w][i])
			}
		}
	}
	// All workers agree with each other exactly (same broadcast).
	for w := 1; w < len(lossy); w++ {
		for i := range lossy[w] {
			if lossy[w][i] != lossy[0][i] {
				t.Fatalf("workers disagree at %d", i)
			}
		}
	}
}

func TestSlotReuseAcrossManyChunks(t *testing.T) {
	// Vector much longer than the pool forces every slot through many
	// bind/reset cycles.
	cfg := Config{Workers: 2, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	const n = 64
	vecs := make([][]float32, cfg.Workers)
	for w := range vecs {
		vecs[w] = make([]float32, n)
		for i := range vecs[w] {
			vecs[w][i] = float32(i%7) + float32(w)*0.5
		}
	}
	results, _, _ := runReduction(t, cfg, vecs, 0, 3)
	for i := 0; i < n; i++ {
		want := vecs[0][i] + vecs[1][i]
		if results[0][i] != want {
			t.Fatalf("elem %d = %g, want %g", i, results[0][i], want)
		}
	}
}

func TestMultiModulePackets(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 2, Modules: 3, Mode: core.ModeApprox, Arch: pisa.ExtendedArch()}
	const n = 10 // not a multiple of 3: exercises padding
	vecs := [][]float32{make([]float32, n), make([]float32, n)}
	for i := 0; i < n; i++ {
		vecs[0][i] = float32(i) * 0.25
		vecs[1][i] = float32(n-i) * 0.5
	}
	results, _, _ := runReduction(t, cfg, vecs, 0, 5)
	for i := 0; i < n; i++ {
		want := vecs[0][i] + vecs[1][i]
		if results[0][i] != want {
			t.Fatalf("elem %d = %g, want %g", i, results[0][i], want)
		}
	}
}

func TestFullModeService(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 2, Modules: 1, Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	vecs := [][]float32{{1, 1024, -2}, {1024, 1, -3}}
	results, _, _ := runReduction(t, cfg, vecs, 0, 9)
	want := []float32{1025, 1025, -5}
	for i, w := range want {
		if results[0][i] != w {
			t.Errorf("elem %d = %g, want %g (full FPISA is exact here)", i, results[0][i], w)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0, Pool: 1, Modules: 1},
		{Workers: 1, Pool: 0, Modules: 1},
		{Workers: 1, Pool: 1, Modules: 0},
	}
	for _, c := range bad {
		if _, err := NewSwitch(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	// Module count beyond the architecture's capacity.
	c := Config{Workers: 1, Pool: 1, Modules: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	if _, err := NewSwitch(c); err == nil {
		t.Error("2 modules on base arch accepted")
	}
}

func TestEncodeDecode(t *testing.T) {
	pkt := EncodeAddProfile(0, 7, 0, core.DefaultProfile, []float32{1.5, -2.5})
	if pkt[0] != WireVersion || pkt[1] != MsgAdd || len(pkt) != 17 {
		t.Fatalf("pkt = %v", pkt)
	}
	if pkt[hdrBytes] != 0 {
		t.Fatalf("first-incarnation epoch octet = %d", pkt[hdrBytes])
	}
	if withEpoch := EncodeAddProfile(0, 7, 5, core.DefaultProfile, []float32{1.5, -2.5}); withEpoch[hdrBytes] != 5 {
		t.Fatalf("epoch octet = %d, want 5", withEpoch[hdrBytes])
	}
	if _, _, _, _, err := DecodeResultProfile(pkt, 2, core.DefaultProfile); err == nil {
		t.Error("DecodeResult accepted an ADD packet")
	}
}
