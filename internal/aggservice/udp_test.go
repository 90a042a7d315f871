package aggservice

import (
	"sync"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// TestReduceOverUDP runs the full FPISA aggregation service across real
// UDP sockets on loopback — the end-to-end path of examples/allreduce and
// cmd/fpisa-switch.
func TestReduceOverUDP(t *testing.T) {
	cfg := Config{Workers: 3, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewUDP(cfg.Workers, sw.HandleBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	const n = 12
	vecs := make([][]float32, cfg.Workers)
	for w := range vecs {
		vecs[w] = make([]float32, n)
		for i := range vecs[w] {
			vecs[w][i] = float32(w+1) + float32(i)*0.5
		}
	}

	results := make([][]float32, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &Worker{ID: w, Fabric: fab, Cfg: cfg, Timeout: 100 * time.Millisecond, Retries: 100}
			results[w], errs[w] = wk.Reduce(vecs[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for i := 0; i < n; i++ {
		want := float32(1+2+3) + 3*float32(i)*0.5
		if results[0][i] != want {
			t.Errorf("elem %d = %g, want %g", i, results[0][i], want)
		}
	}
}

// TestTupleBatchAtBudgetOverUDP sends the largest tuple batch the wire
// allows, MaxTuplesPerBatch rows, through a real UDP switch: it must cross as
// one datagram and fold every row. The bound is derived from the fabric's
// datagram budget (transport.FrameCapacity); a bound that did not follow a
// change of the frame's overhead would make this send fail.
func TestTupleBatchAtBudgetOverUDP(t *testing.T) {
	cfg := analyticsCfg(1, AdmitClass{Class: ClassQuery, Groups: MaxAnalyticsRegisters})
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	fab, err := transport.NewUDP(cfg.Ports(), sw.HandleBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	keys := make([]uint32, MaxTuplesPerBatch)
	vals := make([]float32, MaxTuplesPerBatch)
	for i := range keys {
		keys[i], vals[i] = uint32(i%MaxAnalyticsRegisters), 1
	}
	cl := NewTupleClient(1, 0, fab, cfg)
	cl.Timeout = 500 * time.Millisecond
	if _, err := cl.Send(OpQueryAgg, keys, vals); err != nil {
		t.Fatalf("%d-row batch: %v", len(keys), err)
	}
	if cl.SentBatches != 1 {
		t.Fatalf("%d rows went out as %d batches, want 1", len(keys), cl.SentBatches)
	}
	var sum float32
	for _, e := range drainVia(t, sw, 1, DrainGroups, 0, 1) {
		sum += e.Val
	}
	if sum != float32(len(keys)) {
		t.Fatalf("drained rows sum to %g, want %d", sum, len(keys))
	}
}
