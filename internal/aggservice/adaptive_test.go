package aggservice

import (
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// TestAdaptiveBatchShrinksUnderLoss is the adaptive-batching acceptance
// test: under injected 10% loss the worker demonstrably halves its batch
// on retransmit rounds, and when the loss clears it grows the batch back
// to the ceiling on clean ack streaks — the ROADMAP's "size batches from
// the observed ack rate" item.
func TestAdaptiveBatchShrinksUnderLoss(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 16, Modules: 1, Shards: 4,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]float32, 2048)
	for i := range vec {
		vec[i] = float32(i%7) * 0.25
	}

	// Phase 1: a lossy path. Every lost ADD stalls the window, and every
	// stall must halve the batch.
	lossy, err := transport.NewMemory(transport.MemoryConfig{
		Workers: 1, BatchHandler: sw.HandleBatch,
		UplinkLoss: 0.10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	w := NewWorker(0, lossy, cfg)
	w.Batch = 16
	w.Timeout = 5 * time.Millisecond
	w.Retries = 10_000
	if _, err := w.Reduce(vec); err != nil {
		t.Fatal(err)
	}
	if w.BatchShrinks == 0 {
		t.Fatalf("10%% loss caused no batch shrinks (sent %d packets in %d vectors)",
			w.SentPackets, w.SentDatagrams)
	}
	t.Logf("lossy run: %d shrinks, %d grows, batch %d at finish", w.BatchShrinks, w.BatchGrows, w.LastBatch)

	// Phase 2: the loss clears. The same worker starts from its
	// conservative carried-over batch and must grow back to the ceiling.
	// (A fresh switch, because a job's chunk ids are monotone: a second
	// all-reduce on one switch would continue numbering, not restart.)
	sw2, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: sw2.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	w.Fabric = clean
	w.LastBatch = 1 // worst-case carry-over from a saturated lossy path
	grows0 := w.BatchGrows
	if _, err := w.Reduce(vec); err != nil {
		t.Fatal(err)
	}
	if w.BatchGrows == grows0 {
		t.Fatal("clean run never grew the batch back")
	}
	if w.LastBatch != 16 {
		t.Fatalf("clean run finished at batch %d, want the ceiling 16", w.LastBatch)
	}
	t.Logf("clean run: %d grows, batch %d at finish", w.BatchGrows-grows0, w.LastBatch)
}

// TestStaleNoticeDoesNotKillFreshWorker: a datagram buffered from an
// evicted incarnation bounces with a notice echoing ITS epoch — the
// re-admitted incarnation's worker, mid-reduce on the same port, must
// ignore that notice and complete (the outage the wire epoch exists to
// prevent must not be reintroduced by its own error path).
func TestStaleNoticeDoesNotKillFreshWorker(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 4, Modules: 1, Shards: 2,
		Capacity: 1, Jobs: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Evict and re-admit job 0 so the live incarnation is epoch 1.
	if err := sw.Evict(0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Admit(0, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	if e := sw.JobEpoch(0); e != 1 {
		t.Fatalf("epoch = %d, want 1", e)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	w := NewWorker(0, fab, cfg)
	w.Epoch = 1
	w.Timeout = 20 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := w.Reduce(make([]float32, 64))
		done <- err
	}()
	// The stale straggler: epoch-0 ADDs landing on the same port while the
	// fresh worker reduces. Each bounces with an epoch-0 notice the fresh
	// worker must ignore.
	for i := 0; i < 20; i++ {
		if err := fab.SendBatch(0, [][]byte{EncodeAddProfile(0, uint32(100+i), 0, core.DefaultProfile, []float32{1})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("fresh worker killed by a stale straggler's notice: %v", err)
	}
	if r := sw.Rejects(); r.Stale == 0 {
		t.Fatal("stale ADDs were not counted")
	}
}

// TestAdaptiveBatchRespectsCeiling: the controller never exceeds Batch and
// never flushes emptier than one chunk.
func TestAdaptiveBatchRespectsCeiling(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 4, Modules: 1,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	w := NewWorker(0, fab, cfg)
	w.Batch = 4
	if _, err := w.Reduce(make([]float32, 64)); err != nil {
		t.Fatal(err)
	}
	if w.LastBatch < 1 || w.LastBatch > 4 {
		t.Fatalf("adaptive batch %d escaped [1, 4]", w.LastBatch)
	}
	if w.SentDatagrams == 0 || w.SentPackets < w.SentDatagrams {
		t.Fatalf("accounting: %d packets in %d vectors", w.SentPackets, w.SentDatagrams)
	}
}
