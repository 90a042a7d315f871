package fpisa

// End-to-end integration test: gradient vectors reduced through the FPISA
// aggregation service, its Workers and the Memory fabric must agree with
// the exact sums up to FPISA-A's rounding and its rare documented
// overwrites, in one ADD per chunk. (SwitchML's second, exponent round per
// chunk is stated in internal/perfmodel's doc; its host work is
// perfmodel.HostWork.)

import (
	"math"
	"sync"
	"testing"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

func TestFPISAEndToEnd(t *testing.T) {
	const (
		workers = 4
		vecLen  = 64
	)
	gen := gradients.NewGenerator(gradients.VGG19, 123)
	vecs := gen.WorkerGradients(workers, vecLen)
	exact := gradients.AggregateExact(vecs)

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
	var wg sync.WaitGroup
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

	// Numerical agreement with the exact sums: FPISA-A rounding plus its
	// rare documented overwrites.
	fpLarge := 0
	for i := 0; i < vecLen; i++ {
		if d := math.Abs(float64(fpResults[0][i]) - exact[i]); d > 1e-4+1e-3*math.Abs(exact[i]) {
			fpLarge++
		}
	}
	if float64(fpLarge) > 0.07*vecLen {
		t.Errorf("fpisa had %d/%d large-error elements", fpLarge, vecLen)
	}

	// Protocol structure: one ADD per element-chunk.
	fpChunks := vecLen / fpCfg.Modules
	if got := fpWorkers[0].SentPackets; got != uint64(fpChunks) {
		t.Errorf("fpisa worker sent %d packets, want %d (one round/chunk)", got, fpChunks)
	}
}
