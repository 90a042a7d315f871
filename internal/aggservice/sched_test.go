package aggservice

import (
	"sync/atomic"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// checkSchedInvariants audits every shard's scheduler ledger. Call it only
// on a quiesced switch (no concurrent traffic or lifecycle activity): the
// holders count must equal the demanding budget-holders it summarizes,
// deficits must be non-negative, no job may have seen a future round, and
// a vacant job id must hold no budget in the live round (eviction returned
// it).
func checkSchedInvariants(t *testing.T, sw *Switch) {
	t.Helper()
	for k := range sw.shards {
		sh := sw.shards[k]
		sh.mu.Lock()
		holders := 0
		for j := range sh.sched.jobs {
			dj := &sh.sched.jobs[j]
			if dj.deficit < 0 {
				sh.mu.Unlock()
				t.Fatalf("shard %d job %d: negative deficit %d", k, j, dj.deficit)
			}
			if dj.seenRound > sh.sched.round {
				sh.mu.Unlock()
				t.Fatalf("shard %d job %d: seenRound %d beyond round %d", k, j, dj.seenRound, sh.sched.round)
			}
			if dj.seenRound == sh.sched.round && dj.deficit > 0 {
				holders++
				if sw.jobs[j].live.Load() == nil {
					sh.mu.Unlock()
					t.Fatalf("shard %d: vacant job %d still holds %d deficit", k, j, dj.deficit)
				}
			}
		}
		if holders != sh.sched.holders {
			sh.mu.Unlock()
			t.Fatalf("shard %d: holders=%d but %d jobs hold budget", k, sh.sched.holders, holders)
		}
		sh.mu.Unlock()
	}
}

// TestDRRSchedUnit drives one scheduler instance through replenish, defer,
// round advance, refund and forfeit, checking the holders ledger at every
// step.
func TestDRRSchedUnit(t *testing.T) {
	d := newDRRSched(3, time.Minute)
	const q = 2

	// A lone demander is never deferred: rounds advance freely under it.
	for i := 0; i < 10; i++ {
		if !d.charge(0, q) {
			t.Fatalf("lone job deferred at charge %d", i)
		}
	}
	if d.round < 5 {
		t.Fatalf("round = %d after 10 lone charges of quantum 2", d.round)
	}

	// Two demanders on a fresh scheduler: once job 0 exhausts its quantum
	// it defers while job 1 holds budget, and is served again the moment
	// job 1 spends out.
	d = newDRRSched(3, time.Minute)
	start := d.round
	if !d.charge(0, q) || !d.charge(0, q) {
		t.Fatal("job 0 quantum refused")
	}
	if !d.charge(1, q) {
		t.Fatal("job 1 first charge refused")
	}
	if d.charge(0, q) {
		t.Fatal("over-deficit job 0 served while job 1 held budget")
	}
	if !d.charge(1, q) {
		t.Fatal("job 1 second charge refused")
	}
	if d.holders != 0 {
		t.Fatalf("holders = %d after both exhausted", d.holders)
	}
	if !d.charge(0, q) {
		t.Fatal("round did not advance once budgets were spent")
	}
	if d.round != start+1 {
		t.Fatalf("round = %d, want %d", d.round, start+1)
	}

	// Refund: a vetoed bind restores the budget and the holders entry.
	d = newDRRSched(2, time.Minute)
	if !d.charge(0, 1) {
		t.Fatal("charge")
	}
	if !d.charge(1, 1) {
		t.Fatal("charge")
	}
	d.refund(0) // job 0's bind was vetoed (quota/pipeline)
	if d.holders != 1 || d.jobs[0].deficit != 1 {
		t.Fatalf("after refund: holders=%d deficit=%d", d.holders, d.jobs[0].deficit)
	}
	if d.charge(1, 1) {
		t.Fatal("job 1 served past its quantum while refunded job 0 held budget")
	}

	// Forfeit: an evicted job's unspent budget stops blocking the round.
	d.forfeit(0)
	if d.holders != 0 {
		t.Fatalf("holders = %d after forfeit", d.holders)
	}
	if !d.charge(1, 1) {
		t.Fatal("forfeit did not unblock the round")
	}
}

// floodWeighted floods one switch from every admitted job simultaneously —
// a single deterministic round-robin driver, so throughput shares are
// governed by the scheduler, not the Go scheduler — until stop returns
// true, and returns each job's completed chunks.
func floodWeighted(t *testing.T, sw *Switch, cfg Config, stop func(chunks []uint32) bool) []uint32 {
	t.Helper()
	n := cfg.jobs()
	chunks := make([]uint32, n)
	vals := []float32{1}
	for sweep := 0; !stop(chunks); sweep++ {
		if sweep > 50_000_000 {
			t.Fatalf("flood wedged: %v chunks after %d sweeps", chunks, sweep)
		}
		for j := 0; j < n; j++ {
			ds := handle(sw, cfg.Port(j, 0), EncodeAddProfile(j, chunks[j], 0, core.DefaultProfile, vals))
			if delivered(ds, MsgResult) {
				chunks[j]++
			}
		}
	}
	return chunks
}

// jainIndex computes Jain's fairness index over weight-normalized
// throughputs: 1.0 is perfectly weighted-fair, 1/n is maximally unfair.
func jainIndex(x []uint32, w []int) float64 {
	var sum, sumSq float64
	for i := range x {
		phi := float64(x[i]) / float64(w[i])
		sum += phi
		sumSq += phi * phi
	}
	return sum * sum / (float64(len(x)) * sumSq)
}

// TestFairnessWeightedThroughput is the fairness property test: three jobs
// with weights {1,2,4} flood one shared switch; each job's completed-chunk
// throughput must match its weight share within 10%, with Jain's index
// over the weight-normalized shares at least 0.95. SchedRoundAge is set
// far beyond the test's runtime so the shares are governed purely by the
// deficit ledger, not the stall bound.
func TestFairnessWeightedThroughput(t *testing.T) {
	weights := []int{1, 2, 4}
	cfg := Config{Workers: 1, Pool: 8, Modules: 1, Shards: 2, Jobs: len(weights),
		Weights: weights, SchedRoundAge: time.Minute,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const heavyTarget = 2048
	chunks := floodWeighted(t, sw, cfg, func(c []uint32) bool { return c[2] >= heavyTarget })

	var total, sumW uint32
	for j, c := range chunks {
		total += c
		sumW += uint32(weights[j])
		st, _ := sw.JobStats(j)
		if st.Completions != uint64(c) {
			t.Fatalf("job %d: stats report %d completions, driver saw %d", j, st.Completions, c)
		}
		// Every job but the heaviest must have been deferred at some point:
		// the heaviest is the last to exhaust each round, so it advances
		// the round instead of deferring — that asymmetry IS the schedule.
		if j < len(chunks)-1 && st.SchedDefers == 0 {
			t.Errorf("job %d flooded a contended switch without a single defer", j)
		}
	}
	for j, c := range chunks {
		expected := float64(total) * float64(weights[j]) / float64(sumW)
		if diff := float64(c) - expected; diff < -0.10*expected || diff > 0.10*expected {
			t.Errorf("job %d (weight %d): %d chunks, want %.0f ±10%% (all: %v)",
				j, weights[j], c, expected, chunks)
		}
	}
	if jain := jainIndex(chunks, weights); jain < 0.95 {
		t.Errorf("Jain index %.4f < 0.95 (chunks %v)", jain, chunks)
	}
	if r := sw.Rejects(); r.Backpressure == 0 {
		t.Error("weighted contention produced no backpressure defers")
	}
	checkSchedInvariants(t, sw)
}

// TestFairnessEqualWeights is the degenerate case: equal weights must give
// equal shares within the same tolerance.
func TestFairnessEqualWeights(t *testing.T) {
	weights := []int{1, 1, 1}
	cfg := Config{Workers: 1, Pool: 8, Modules: 1, Shards: 2, Jobs: len(weights),
		Weights: weights, SchedRoundAge: time.Minute,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chunks := floodWeighted(t, sw, cfg, func(c []uint32) bool {
		return c[0]+c[1]+c[2] >= 3072
	})
	var total uint32
	for _, c := range chunks {
		total += c
	}
	expected := float64(total) / 3
	for j, c := range chunks {
		if diff := float64(c) - expected; diff < -0.10*expected || diff > 0.10*expected {
			t.Errorf("job %d: %d chunks, want %.0f ±10%% (all: %v)", j, c, expected, chunks)
		}
	}
	if jain := jainIndex(chunks, weights); jain < 0.95 {
		t.Errorf("Jain index %.4f < 0.95 (chunks %v)", jain, chunks)
	}
	checkSchedInvariants(t, sw)
}

// TestSchedulerWorkConserving: a lone tenant on an uncontended switch is
// never deferred — the scheduler only meters when someone else is waiting.
func TestSchedulerWorkConserving(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 8, Modules: 1, Shards: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint32(0); c < 1024; c++ {
		if ds := handle(sw, 0, EncodeAddProfile(0, c, 0, core.DefaultProfile, []float32{1})); !delivered(ds, MsgResult) {
			t.Fatalf("lone tenant's chunk %d did not complete: %v", c, ds)
		}
	}
	if r := sw.Rejects(); r.Backpressure != 0 {
		t.Fatalf("lone tenant deferred %d times", r.Backpressure)
	}
	st, _ := sw.JobStats(0)
	if st.SchedDefers != 0 || st.Completions != 1024 {
		t.Fatalf("stats: %+v", st)
	}
	checkSchedInvariants(t, sw)
}

// TestEvictionReturnsDeficit pins the lifecycle integration: a tenant
// holding unspent deficit is evicted, and the tenants it was blocking are
// served immediately — without waiting out the round-age stall bound.
func TestEvictionReturnsDeficit(t *testing.T) {
	cfg := dynCfg(1, 16, 1, 2, 2)
	cfg.Weights = []int{1, 1}
	cfg.SchedRoundAge = time.Hour // the forfeit, not the clock, must unblock
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 shows demand and leaves most of its quantum unspent.
	if ds := handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1})); !delivered(ds, MsgResult) {
		t.Fatalf("job 0 bind failed: %v", ds)
	}
	// Job 1 spends its whole quantum, then defers against job 0's budget.
	for c := uint32(0); c < drrQuantum; c++ {
		if ds := handle(sw, cfg.Port(1, 0), EncodeAddProfile(1, c, 0, core.DefaultProfile, []float32{1})); !delivered(ds, MsgResult) {
			t.Fatalf("job 1 chunk %d did not complete: %v", c, ds)
		}
	}
	ds := handle(sw, cfg.Port(1, 0), EncodeAddProfile(1, drrQuantum, 0, core.DefaultProfile, []float32{1}))
	if !delivered(ds, MsgJobAck) || delivered(ds, MsgResult) {
		t.Fatalf("over-deficit bind not deferred: %v", ds)
	}
	if ack, err := DecodeJobAck(ds[0].Packet); err != nil || ack.Status != AckBackpressure {
		t.Fatalf("defer notice: status=%v err=%v", ack.Status, err)
	}
	if r := sw.Rejects(); r.Backpressure != 1 {
		t.Fatalf("Backpressure = %d, want 1", r.Backpressure)
	}
	// Evicting job 0 forfeits its unspent deficit: job 1's retry is served
	// at once.
	if err := sw.Evict(0); err != nil {
		t.Fatal(err)
	}
	if ds := handle(sw, cfg.Port(1, 0), EncodeAddProfile(1, drrQuantum, 0, core.DefaultProfile, []float32{1})); !delivered(ds, MsgResult) {
		t.Fatalf("eviction did not return the blocking deficit: %v", ds)
	}
	checkSchedInvariants(t, sw)
}

// TestWorkerBacksOffOnBackpressure pins the worker side of the notice: an
// AckBackpressure makes Reduce wait for the round to turn over (without
// aborting and without burning retry budget), and the deferred chunks are
// recovered through the normal retransmit path.
func TestWorkerBacksOffOnBackpressure(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 8, Modules: 1, Shards: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fabric handler plays an overloaded scheduler: the first few ADDs
	// are deferred with AckBackpressure notices, everything after flows to
	// the real switch.
	var deferred atomic.Int64
	handler := func(w int, pkts [][]byte, out *transport.DeliveryList) {
		if deferred.Load() < 6 {
			for range pkts {
				deferred.Add(1)
				out.Unicast(w, EncodeJobAck(JobAck{Job: 0, Status: AckBackpressure, JobSpec: JobSpec{Weight: 1}}))
			}
			return
		}
		sw.HandleBatch(w, pkts, out)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: handler})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	vec := make([]float32, 256)
	for i := range vec {
		vec[i] = float32(i) * 0.5
	}
	w := NewWorker(0, fab, cfg)
	w.Timeout = 10 * time.Millisecond
	w.Retries = 1000
	out, err := w.Reduce(vec)
	if err != nil {
		t.Fatalf("backpressured reduce failed: %v", err)
	}
	for i, v := range vec {
		if out[i] != v {
			t.Fatalf("elem %d = %g, want %g", i, out[i], v)
		}
	}
	if w.BackpressureAcks == 0 {
		t.Fatal("worker never saw the backpressure notices")
	}
	t.Logf("%d notices, %d ADDs in %d vectors", w.BackpressureAcks, w.SentPackets, w.SentDatagrams)
}

// TestWorkerIgnoresForeignBackpressure: a backpressure notice for another
// incarnation (stale epoch) must not be counted as the worker's own.
func TestWorkerIgnoresForeignBackpressure(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 4, Modules: 1,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	handler := func(w int, pkts [][]byte, out *transport.DeliveryList) {
		// A stale straggler's notice rides along with every vector.
		out.Unicast(w, EncodeJobAck(JobAck{Job: 0, Status: AckBackpressure, Epoch: 9, JobSpec: JobSpec{Weight: 1}}))
		sw.HandleBatch(w, pkts, out)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: handler})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	w := NewWorker(0, fab, cfg)
	if _, err := w.Reduce(make([]float32, 64)); err != nil {
		t.Fatal(err)
	}
	if w.BackpressureAcks != 0 {
		t.Fatalf("worker counted %d foreign backpressure notices", w.BackpressureAcks)
	}
}
