package fpisa

// Cross-system integration test: the same gradient vectors reduced through
// the SwitchML baseline and the FPISA aggregation service must agree with
// each other and with the exact sums, while FPISA uses half the protocol
// packets and none of the quantization work — §5.2.3 measured end to end.

import (
	"math"
	"sync"
	"testing"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/switchml"
	"fpisa/internal/transport"
)

func TestSwitchMLvsFPISAEndToEnd(t *testing.T) {
	const (
		workers = 4
		vecLen  = 64
	)
	gen := gradients.NewGenerator(gradients.VGG19, 123)
	vecs := gen.WorkerGradients(workers, vecLen)
	exact := gradients.AggregateExact(vecs)

	// --- SwitchML baseline ---
	smlCfg := switchml.Config{Workers: workers, Pool: 4, Elems: 8}
	smlSwitch, err := switchml.NewSwitch(smlCfg)
	if err != nil {
		t.Fatal(err)
	}
	smlFab, err := transport.NewMemory(transport.MemoryConfig{Workers: workers, BatchHandler: smlSwitch.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	smlResults := make([][]float32, workers)
	smlWorkers := make([]*switchml.Worker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		smlWorkers[w] = &switchml.Worker{ID: w, Fabric: smlFab, Cfg: smlCfg, Timeout: 50 * time.Millisecond}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out, err := smlWorkers[w].Reduce(vecs[w])
			if err != nil {
				t.Errorf("switchml worker %d: %v", w, err)
				return
			}
			smlResults[w] = out
		}(w)
	}
	wg.Wait()

	// --- FPISA service ---
	fpCfg := aggservice.Config{Workers: workers, Pool: 4, Modules: 1, Shards: 4,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	fpSwitch, err := aggservice.NewSwitch(fpCfg)
	if err != nil {
		t.Fatal(err)
	}
	fpFab, err := transport.NewMemory(transport.MemoryConfig{Workers: workers, BatchHandler: fpSwitch.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	fpResults := make([][]float32, workers)
	fpWorkers := make([]*aggservice.Worker, workers)
	for w := 0; w < workers; w++ {
		fpWorkers[w] = aggservice.NewWorker(w, fpFab, fpCfg)
		fpWorkers[w].Timeout = 50 * time.Millisecond
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out, err := fpWorkers[w].Reduce(vecs[w])
			if err != nil {
				t.Errorf("fpisa worker %d: %v", w, err)
				return
			}
			fpResults[w] = out
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("worker reductions failed")
	}

	// Numerical agreement with the exact sums (quantization tolerance for
	// SwitchML; FPISA-A rounding plus its rare documented overwrites).
	fpLarge := 0
	for i := 0; i < vecLen; i++ {
		if d := math.Abs(float64(smlResults[0][i]) - exact[i]); d > 1e-4+1e-3*math.Abs(exact[i]) {
			t.Errorf("switchml elem %d: %g vs exact %g", i, smlResults[0][i], exact[i])
		}
		if d := math.Abs(float64(fpResults[0][i]) - exact[i]); d > 1e-4+1e-3*math.Abs(exact[i]) {
			fpLarge++
		}
	}
	if float64(fpLarge) > 0.07*vecLen {
		t.Errorf("fpisa had %d/%d large-error elements", fpLarge, vecLen)
	}

	// Protocol structure: SwitchML pays two uplink packets per chunk
	// (exponent + data) and per-element quantization; FPISA pays one
	// small packet per element-chunk and zero conversions.
	expPkts, dataPkts, _ := smlSwitch.Stats()
	if expPkts != dataPkts {
		t.Errorf("switchml rounds unbalanced: %d exp vs %d data", expPkts, dataPkts)
	}
	if smlWorkers[0].QuantizeOps == 0 {
		t.Error("switchml did no quantization work")
	}
	smlChunks := (vecLen + smlCfg.Elems - 1) / smlCfg.Elems
	if got := smlWorkers[0].SentPackets; got != uint64(2*smlChunks) {
		t.Errorf("switchml worker sent %d packets, want %d (two rounds/chunk)", got, 2*smlChunks)
	}
	fpChunks := vecLen / fpCfg.Modules
	if got := fpWorkers[0].SentPackets; got != uint64(fpChunks) {
		t.Errorf("fpisa worker sent %d packets, want %d (one round/chunk)", got, fpChunks)
	}
}
