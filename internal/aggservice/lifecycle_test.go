package aggservice

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

func dynCfg(workers, pool, shards, jobs, capacity int) Config {
	return Config{
		Workers: workers, Pool: pool, Modules: 1, Shards: shards,
		Jobs: jobs, Capacity: capacity, Dynamic: true,
		Mode: core.ModeApprox, Arch: pisa.BaseArch(),
	}
}

// TestAdmitEvictStateMachine covers the in-process lifecycle transitions
// and every error branch.
func TestAdmitEvictStateMachine(t *testing.T) {
	cfg := dynCfg(2, 2, 2, 1, 3)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Jobs() != 3 {
		t.Fatalf("capacity = %d, want 3", sw.Jobs())
	}
	if ph := sw.JobPhaseOf(0); ph != PhaseAdmitted {
		t.Fatalf("job 0 phase = %v", ph)
	}
	if ph := sw.JobPhaseOf(1); ph != PhaseVacant {
		t.Fatalf("job 1 phase = %v", ph)
	}
	if sw.current(1) != nil {
		t.Fatal("vacant job holds an incarnation")
	}

	if err := sw.Admit(1, JobSpec{}); err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	auditSwitch(t, "admitted", sw, 1)
	if err := sw.Admit(1, JobSpec{}); !errors.Is(err, ErrAlreadyAdmitted) {
		t.Fatalf("re-admit: %v", err)
	}
	if err := sw.Admit(9, JobSpec{}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("admit out of capacity: %v", err)
	}
	if err := sw.Evict(2); !errors.Is(err, ErrNotAdmitted) {
		t.Fatalf("evict vacant: %v", err)
	}
	if err := sw.Evict(9); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("evict out of capacity: %v", err)
	}
	if err := sw.Admit(2, JobSpec{}); err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	// Every id is live.
	if err := sw.Evict(2); err != nil { // vacate one again
		t.Fatalf("evict 2: %v", err)
	}
	if ph := sw.JobPhaseOf(2); ph != PhaseVacant {
		t.Fatalf("job 2 after idle evict: %v (drain with nothing outstanding must release at once)", ph)
	}
	if err := sw.Admit(2, JobSpec{}); err != nil {
		t.Fatalf("re-admit 2: %v", err)
	}
	// Now genuinely full.
	sw2, _ := NewSwitch(dynCfg(2, 2, 2, 2, 2))
	if err := sw2.Admit(1, JobSpec{}); !errors.Is(err, ErrAlreadyAdmitted) {
		t.Fatalf("full switch admit: %v", err)
	}
	if err := sw2.Evict(1); err != nil {
		t.Fatal(err)
	}
	if err := sw2.Admit(1, JobSpec{}); err != nil {
		t.Fatalf("re-admit of an evicted id on a full switch: %v", err)
	}
}

// auditSwitch asserts what holds of a switch's job ids whenever no handler
// is running: a vacant id reports nothing outstanding and nothing cached,
// and each id the caller names as freshly (re-)admitted is live on an
// incarnation whose every slot is free — unbound, no contribution seen,
// nothing cached, nothing owed up the tree.
func auditSwitch(t *testing.T, name string, s *Switch, fresh ...int) {
	t.Helper()
	for j := 0; j < s.ncap; j++ {
		if st, _ := s.JobStats(j); st.Phase == PhaseVacant && (st.Outstanding != 0 || st.CacheBytes != 0) {
			t.Errorf("%s: vacant job %d reports outstanding=%d cacheBytes=%d", name, j, st.Outstanding, st.CacheBytes)
		}
	}
	for _, j := range fresh {
		inc := s.current(j)
		if inc == nil {
			t.Errorf("%s: job %d is not live", name, j)
			continue
		}
		for slot := 0; slot < 2*s.cfg.Pool; slot++ {
			sh := s.shards[s.shardOf(j, slot)]
			sh.mu.Lock()
			st := s.slotAt(inc, slot)
			free := st.chunk == -1 && st.nSeen == 0 && !st.final
			for _, seen := range st.seen {
				free = free && !seen
			}
			sh.mu.Unlock()
			if !free {
				t.Errorf("%s: job %d's fresh incarnation has state in slot %d", name, j, slot)
			}
		}
		if n := s.UplinkPending(j); n != 0 {
			t.Errorf("%s: job %d's fresh incarnation owes %d uplink ADDs", name, j, n)
		}
	}
}

// TestAdmitNeverRefusesVacantId churns every id of a capacity-3 switch
// through 1000 admit/evict cycles in seeded random order, with traffic
// bound, completed and cached in between: an admit of a vacant id is never
// refused, and every incarnation starts with every slot free.
func TestAdmitNeverRefusesVacantId(t *testing.T) {
	cfg := dynCfg(1, 2, 2, 0, 3)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	admits := make([]int, cfg.Capacity)
	for step := 0; step < 2000; step++ {
		for _, job := range rng.Perm(cfg.Capacity) {
			if sw.JobPhaseOf(job) != PhaseVacant {
				if err := sw.Evict(job); err != nil {
					t.Fatalf("step %d: evict %d: %v", step, job, err)
				}
				continue
			}
			if err := sw.Admit(job, JobSpec{}); err != nil {
				t.Fatalf("step %d: admit of vacant id %d refused: %v", step, job, err)
			}
			admits[job]++
			if step%100 == 0 {
				auditSwitch(t, "churn", sw, job)
			}
			// Leave state behind for the eviction to drop: completed (cached)
			// chunks in some slots, nothing in others.
			for c, n := 0, rng.Intn(2*cfg.Pool+1); c < n; c++ {
				pkt := EncodeAddProfile(job, uint32(c), sw.JobEpoch(job), core.DefaultProfile, []float32{1})
				if ds := handle(sw, cfg.Port(job, 0), pkt); len(ds) != 1 {
					t.Fatalf("step %d: job %d chunk %d: deliveries %v", step, job, c, ds)
				}
			}
		}
	}
	for job, n := range admits {
		if n != 1000 {
			t.Errorf("job %d admitted %d times, want 1000", job, n)
		}
	}
	auditSwitch(t, "after churn", sw)
}

// TestEvictionDrainsInFlightChunks is the drain contract: an evicted job's
// bound chunk still completes (delivering its result), a NEW chunk is
// refused with a counted Rejects.Draining and an AckDraining notice, and
// the quiesced job is released and its id can be admitted again.
func TestEvictionDrainsInFlightChunks(t *testing.T) {
	cfg := dynCfg(2, 2, 2, 1, 2)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 binds chunk 0; the chunk is now in flight.
	if ds := handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1.5})); ds != nil {
		t.Fatalf("lone add delivered: %v", ds)
	}
	if err := sw.Evict(0); err != nil {
		t.Fatal(err)
	}
	if ph := sw.JobPhaseOf(0); ph != PhaseDraining {
		t.Fatalf("phase = %v, want draining", ph)
	}
	// A new chunk bind during the drain is refused and the worker told.
	ds := handle(sw, cfg.Port(0, 1), EncodeAddProfile(0, 1, 0, core.DefaultProfile, []float32{9}))
	if len(ds) != 1 {
		t.Fatalf("draining bind: deliveries %v", ds)
	}
	if ack, err := DecodeJobAck(ds[0].Packet); err != nil || ack.Job != 0 || ack.Status != AckDraining {
		t.Fatalf("draining notice: job=%d status=%v err=%v", ack.Job, ack.Status, err)
	}
	if r := sw.Rejects(); r.Draining != 1 {
		t.Fatalf("Draining rejects = %d, want 1", r.Draining)
	}
	// The in-flight chunk still completes, with the correct sum.
	ds = handle(sw, cfg.Port(0, 1), EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{2.25}))
	if len(ds) != cfg.Workers {
		t.Fatalf("in-flight completion: deliveries %v", ds)
	}
	if _, _, vals, _, err := DecodeResultProfile(ds[0].Packet, 1, core.DefaultProfile); err != nil || vals[0] != 3.75 {
		t.Fatalf("drained chunk sum: vals=%v err=%v", vals, err)
	}
	// That completion quiesced the job: it is released.
	if ph := sw.JobPhaseOf(0); ph != PhaseVacant {
		t.Fatalf("phase after drain = %v, want vacant", ph)
	}
	// A straggler ADD for the evicted job gets an AckEvicted notice.
	ds = handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{7}))
	if len(ds) != 1 {
		t.Fatalf("post-evict add: deliveries %v", ds)
	}
	if ack, err := DecodeJobAck(ds[0].Packet); err != nil || ack.Status != AckEvicted {
		t.Fatalf("post-evict notice: status=%v err=%v", ack.Status, err)
	}
	// Re-admission starts clean: chunk 0
	// aggregates only the new contributions. The fresh incarnation's wire
	// epoch moved, so its workers must stamp the new octet...
	if err := sw.Admit(0, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	epoch := sw.JobEpoch(0)
	if epoch != 1 {
		t.Fatalf("second incarnation epoch = %d, want 1", epoch)
	}
	// ...and a datagram still carrying the OLD epoch bounces as stale
	// instead of binding into the fresh incarnation. The notice echoes the
	// OFFENDING (old) epoch, so only the evicted incarnation's workers
	// abort on it — never the fresh ones sharing the port.
	ds = handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, 9, 0, core.DefaultProfile, []float32{666}))
	if len(ds) != 1 {
		t.Fatalf("stale-epoch add: deliveries %v", ds)
	}
	if ack, err := DecodeJobAck(ds[0].Packet); err != nil || ack.Status != AckEvicted || ack.Epoch != 0 {
		t.Fatalf("stale-epoch notice: status=%v epoch=%d err=%v (want the stale packet's epoch 0)", ack.Status, ack.Epoch, err)
	}
	if r := sw.Rejects(); r.Stale != 1 {
		t.Fatalf("Stale rejects = %d, want 1", r.Stale)
	}
	handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, 0, epoch, core.DefaultProfile, []float32{10}))
	ds = handle(sw, cfg.Port(0, 1), EncodeAddProfile(0, 0, epoch, core.DefaultProfile, []float32{20}))
	if len(ds) != cfg.Workers {
		t.Fatalf("fresh incarnation: deliveries %v", ds)
	}
	if _, _, vals, _, err := DecodeResultProfile(ds[0].Packet, 1, core.DefaultProfile); err != nil || vals[0] != 30 {
		t.Fatalf("fresh incarnation sum: vals=%v err=%v (stale state leaked across eviction?)", vals, err)
	}
	st, _ := sw.JobStats(0)
	if st.Completions != 1 || st.Adds != 2 {
		t.Fatalf("fresh incarnation stats not zeroed at admit: %+v", st)
	}
}

// TestDrainTimeoutForcesRelease: a drain whose in-flight chunks never
// complete is bounded by DrainTimeout, after which the job is released.
func TestDrainTimeoutForcesRelease(t *testing.T) {
	cfg := dynCfg(2, 2, 2, 1, 1)
	cfg.DrainTimeout = 30 * time.Millisecond
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1})) // bind, partner never arrives
	if err := sw.Evict(0); err != nil {
		t.Fatal(err)
	}
	if ph := sw.JobPhaseOf(0); ph != PhaseDraining {
		t.Fatalf("phase = %v", ph)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sw.JobPhaseOf(0) != PhaseVacant {
		if time.Now().After(deadline) {
			t.Fatal("drain timeout never released the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, _ := sw.JobStats(0); st.Outstanding != 0 {
		t.Fatalf("outstanding after forced release: %+v", st)
	}
	if err := sw.Admit(0, JobSpec{}); err != nil {
		t.Fatalf("re-admit after forced release: %v", err)
	}
}

// TestChurnWhileThirdJobReduces is the acceptance scenario: jobs are
// admitted and evicted over the wire control plane while another job's
// all-reduce runs uninterrupted — its result must be correct and no
// cross-tenant rejects may fire.
func TestChurnWhileThirdJobReduces(t *testing.T) {
	const n = 96
	cfg := dynCfg(3, 4, 4, 1, 3)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{
		Workers: cfg.Ports(), BatchHandler: sw.HandleBatch,
		UplinkLoss: 0.05, DownlinkLoss: 0.05, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Job 0: the long-lived tenant, reducing throughout the churn.
	vecs0 := gradients.NewGenerator(gradients.VGG19, 41).WorkerGradients(cfg.Workers, n)
	results0 := make([][]float32, cfg.Workers)
	errs0 := make([]error, cfg.Workers)
	var wg0 sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg0.Add(1)
		go func(w int) {
			defer wg0.Done()
			wk := NewJobWorker(0, w, fab, cfg)
			wk.Timeout = 20 * time.Millisecond
			wk.Retries = 1000
			results0[w], errs0[w] = wk.Reduce(vecs0[w])
		}(w)
	}

	// Control plane: admit job 1, reduce, evict it; then admit job 2 into
	// the capacity and reduce there too — all through the observer
	// wire messages, mid-flight of job 0.
	control := func(pkt []byte, want AckStatus) {
		t.Helper()
		ds := handle(sw, transport.ObserverWorker, pkt)
		if len(ds) != 1 {
			t.Fatalf("control deliveries: %v", ds)
		}
		ack, err := DecodeJobAck(ds[0].Packet)
		status := ack.Status
		if err != nil || status != want {
			t.Fatalf("control ack: status=%v err=%v, want %v", status, err, want)
		}
	}
	churnReduce := func(job int, seed int64) {
		t.Helper()
		vecs := gradients.NewGenerator(gradients.ResNet50, seed).WorkerGradients(cfg.Workers, 24)
		res := make([][]float32, cfg.Workers)
		errs := make([]error, cfg.Workers)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wk := NewJobWorker(job, w, fab, cfg)
				wk.Timeout = 20 * time.Millisecond
				wk.Retries = 1000
				res[w], errs[w] = wk.Reduce(vecs[w])
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Errorf("job %d worker %d: %v", job, w, err)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		for w := 1; w < cfg.Workers; w++ {
			for i := range res[w] {
				if res[w][i] != res[0][i] {
					t.Fatalf("job %d: workers 0 and %d disagree at %d", job, w, i)
				}
			}
		}
	}

	control(EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 1}}), AckAdmitted)
	churnReduce(1, 51)
	control(EncodeJobEvict(1), AckEvicting)
	control(EncodeJobAdmit(JobAdmit{Job: 2, JobSpec: JobSpec{Weight: 1}}), AckAdmitted)
	churnReduce(2, 52)
	control(EncodeJobEvict(2), AckEvicting)

	wg0.Wait()
	for w, err := range errs0 {
		if err != nil {
			t.Fatalf("job 0 worker %d: %v", w, err)
		}
	}
	for w := 1; w < cfg.Workers; w++ {
		for i := range results0[w] {
			if results0[w][i] != results0[0][i] {
				t.Fatalf("job 0: workers 0 and %d disagree at %d", w, i)
			}
		}
	}
	st0, _ := sw.JobStats(0)
	if st0.Completions != n {
		t.Fatalf("job 0 completions = %d, want %d", st0.Completions, n)
	}
	if r := sw.Rejects(); r.CrossJob != 0 {
		t.Fatalf("cross-tenant rejects during churn: %+v", r)
	}
}

// TestWorkerReduceReturnsErrJobEvicted: a tenant evicted mid-reduce must
// surface ErrJobEvicted from Reduce instead of retransmitting forever.
func TestWorkerReduceReturnsErrJobEvicted(t *testing.T) {
	cfg := dynCfg(2, 2, 2, 2, 2)
	cfg.DrainTimeout = 50 * time.Millisecond
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Ports(), BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	vecs := gradients.NewGenerator(gradients.BERT, 61).WorkerGradients(cfg.Workers, n)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := NewJobWorker(1, w, fab, cfg)
			wk.Timeout = 20 * time.Millisecond
			wk.Retries = 1000
			_, errs[w] = wk.Reduce(vecs[w])
		}(w)
	}
	// Let the reduce make progress, then pull the job out from under it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, _ := sw.JobStats(1); st.Completions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sw.Evict(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, ErrJobEvicted) {
			t.Errorf("worker %d error = %v, want ErrJobEvicted", w, err)
		}
	}
	// The other tenant is untouched and the switch keeps serving it.
	if ph := sw.JobPhaseOf(0); ph != PhaseAdmitted {
		t.Fatalf("job 0 phase = %v", ph)
	}
}

// TestResultCacheEvictedOnWindowAdvance is the cache-bound test: a cached
// RESULT lives exactly as long as its slot version — until chunk c+2·Pool
// rebinds the slot — so CacheBytes is bounded by the job's 2·Pool slots
// however long the run, a duplicate of ANY still-bound chunk replays, and a
// duplicate of a superseded one gets nothing.
func TestResultCacheEvictedOnWindowAdvance(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := resultBytes(cfg.Modules, core.DefaultProfile)
	add := func(chunk uint32) []transport.Delivery {
		return handle(sw, 0, EncodeAddProfile(0, chunk, 0, core.DefaultProfile, []float32{float32(chunk)}))
	}
	cacheBytes := func() int {
		st, _ := sw.JobStats(0)
		return int(st.CacheBytes)
	}
	// The cache fills one entry per slot, then every completion rebinds a
	// slot and replaces its entry: the gauge never passes 2·Pool entries.
	const last = 63
	for c := uint32(0); c <= last; c++ {
		if ds := add(c); len(ds) != 1 {
			t.Fatalf("chunk %d: deliveries %v", c, ds)
		}
		if got, want := cacheBytes(), min(int(c)+1, 2*cfg.Pool)*one; got != want {
			t.Fatalf("cache after chunk %d = %d bytes, want %d", c, got, want)
		}
	}
	// Every chunk still bound to a slot replays from its cache…
	bound := uint32(2 * cfg.Pool)
	for c := last - bound + 1; c <= last; c++ {
		ds := add(c)
		if len(ds) != 1 {
			t.Fatalf("duplicate of bound chunk %d: deliveries %v", c, ds)
		}
		if _, got, _, _, err := DecodeResultProfile(ds[0].Packet, 1, core.DefaultProfile); err != nil || got != c {
			t.Fatalf("duplicate of chunk %d replayed chunk %d (%v)", c, got, err)
		}
	}
	if st, _ := sw.JobStats(0); st.CacheHits != uint64(bound) || st.Retransmits != uint64(bound) {
		t.Fatalf("cache hits = %d, retransmits = %d, want %d each", st.CacheHits, st.Retransmits, bound)
	}
	// …and a chunk whose slot a later chunk took gets nothing (and no panic).
	if ds := add(last - bound); ds != nil {
		t.Fatalf("superseded chunk's duplicate produced deliveries: %v", ds)
	}
	if got := cacheBytes(); got != 2*cfg.Pool*one {
		t.Fatalf("replays moved the cache gauge: %d bytes, want %d", got, 2*cfg.Pool*one)
	}
}

// TestReleaseFreesCaches: evicting an idle job zeroes its cache gauge —
// the "idle or evicted job's cache is never freed" half of the leak fix.
func TestReleaseFreesCaches(t *testing.T) {
	cfg := dynCfg(1, 4, 2, 1, 1)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint32(0); c < 4; c++ {
		handle(sw, 0, EncodeAddProfile(0, c, 0, core.DefaultProfile, []float32{1}))
	}
	if st, _ := sw.JobStats(0); st.CacheBytes == 0 {
		t.Fatal("no cache built up")
	}
	if err := sw.Evict(0); err != nil {
		t.Fatal(err)
	}
	if st, _ := sw.JobStats(0); st.CacheBytes != 0 {
		t.Fatalf("cache survives eviction: %+v", st)
	}
	if err := sw.Admit(0, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	auditSwitch(t, "re-admitted", sw, 0)
}

// TestWireLifecycleGating: the wire control plane is observer-only and
// opt-in; in-process Admit/Evict work regardless.
func TestWireLifecycleGating(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 1, Modules: 1, Jobs: 1, Capacity: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()} // Dynamic: false
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := handle(sw, transport.ObserverWorker, EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 1}}))
	if len(ds) != 1 {
		t.Fatalf("disabled admit deliveries: %v", ds)
	}
	if ack, err := DecodeJobAck(ds[0].Packet); err != nil || ack.Status != AckErrDisabled {
		t.Fatalf("disabled admit ack: %v %v", ack.Status, err)
	}
	if err := sw.Admit(1, JobSpec{}); err != nil {
		t.Fatalf("in-process admit on a static switch: %v", err)
	}

	dyn, err := NewSwitch(dynCfg(1, 1, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// A worker port must not drive the control plane.
	before := dyn.Rejects().Malformed
	if ds := handle(dyn, 0, EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 1}})); ds != nil {
		t.Fatalf("worker-port admit answered: %v", ds)
	}
	if got := dyn.Rejects().Malformed; got != before+1 {
		t.Fatalf("Malformed %d → %d, want +1", before, got)
	}
	// The observer path drives the full round trip.
	for _, step := range []struct {
		pkt  []byte
		want AckStatus
	}{
		{EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 1}}), AckAdmitted},
		{EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 1}}), AckErrAlreadyAdmitted},
		{EncodeJobEvict(1), AckEvicting},
		{EncodeJobEvict(1), AckErrNotAdmitted},
		{EncodeJobAdmit(JobAdmit{Job: 9, JobSpec: JobSpec{Weight: 1}}), AckErrUnknownJob},
		{EncodeJobEvict(9), AckErrUnknownJob},
	} {
		ds := handle(dyn, transport.ObserverWorker, step.pkt)
		if len(ds) != 1 {
			t.Fatalf("step %v: deliveries %v", step.want, ds)
		}
		if ack, err := DecodeJobAck(ds[0].Packet); err != nil || ack.Status != step.want {
			t.Fatalf("ack = %v (err %v), want %v", ack.Status, err, step.want)
		}
	}
	// Every id live: a further admit names a live job.
	handle(dyn, transport.ObserverWorker, EncodeJobEvict(0))
	handle(dyn, transport.ObserverWorker, EncodeJobAdmit(JobAdmit{Job: 0, JobSpec: JobSpec{Weight: 1}}))
	handle(dyn, transport.ObserverWorker, EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 1}}))
	ds = handle(dyn, transport.ObserverWorker, EncodeJobAdmit(JobAdmit{Job: 0, JobSpec: JobSpec{Weight: 1}}))
	if ack, _ := DecodeJobAck(ds[0].Packet); ack.Status != AckErrAlreadyAdmitted {
		t.Fatalf("ack = %v", ack.Status)
	}
}

// TestOnLifecycleHook records the event stream for an admit → evict cycle.
func TestOnLifecycleHook(t *testing.T) {
	sw, err := NewSwitch(dynCfg(1, 1, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		job int
		e   LifecycleEvent
	}
	var got []ev
	sw.OnLifecycle = func(job int, e LifecycleEvent) { got = append(got, ev{job, e}) }
	if err := sw.Admit(1, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Evict(1); err != nil {
		t.Fatal(err)
	}
	want := []ev{{1, EventAdmitted}, {1, EventDraining}, {1, EventEvicted}}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v/%v, want %v/%v", i, got[i].job, got[i].e, want[i].job, want[i].e)
		}
	}
}

// TestStatsReplyRoundTrip pins the extended stats wire layout (phase and
// cache counters) and the truncation hardening.
func TestStatsReplyRoundTrip(t *testing.T) {
	in := JobStats{
		Phase: PhaseDraining, Weight: 4, Adds: 12, Retransmits: 3, Completions: 4,
		SchedDefers: 9, Outstanding: -6, CacheHits: 7, CacheBytes: 80,
	}
	pkt := encodeStatsReply(259, in)
	job, out, err := DecodeStatsReply(pkt)
	if err != nil || job != 259 || out != in {
		t.Fatalf("round trip: job=%d out=%+v err=%v", job, out, err)
	}
	for cut := 1; cut < len(pkt); cut++ {
		_, _, err := DecodeStatsReply(pkt[:cut])
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if cut >= 2 && !errors.Is(err, ErrTruncated) && cut >= jobReqBytes {
			// Short frames below the header are generic wire errors; once
			// the type is readable, truncation must be identified as such.
			t.Fatalf("truncation at %d: %v, want ErrTruncated", cut, err)
		}
	}
	if _, _, err := DecodeStatsReply(append(pkt, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), pkt...)
	bad[4] = 9 // unknown phase
	if _, _, err := DecodeStatsReply(bad); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

// TestJobAckRoundTrip pins the ack codec and its hardening.
func TestJobAckRoundTrip(t *testing.T) {
	for status := AckAdmitted; status <= AckBackpressure; status++ {
		pkt := EncodeJobAck(JobAck{Job: 77, Status: status, Epoch: 3, JobSpec: JobSpec{Weight: 42}})
		ack, err := DecodeJobAck(pkt)
		if status == 8 {
			// Retired octet (the former no-capacity refusal): unknown on the wire.
			if err == nil {
				t.Fatal("retired status octet 8 accepted")
			}
			continue
		}
		job, got, epoch, weight := ack.Job, ack.Status, ack.Epoch, ack.Weight
		if err != nil || job != 77 || got != status || epoch != 3 || weight != 42 {
			t.Fatalf("status %v: job=%d got=%v epoch=%d weight=%d err=%v", status, job, got, epoch, weight, err)
		}
	}
	if _, err := DecodeJobAck(EncodeJobAck(JobAck{Job: 0, Status: AckAdmitted, JobSpec: JobSpec{Weight: 1}})[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated ack: %v", err)
	}
	if _, err := DecodeJobAck(append(EncodeJobAck(JobAck{Job: 0, Status: AckAdmitted, JobSpec: JobSpec{Weight: 1}}), 1)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeJobAck([]byte{WireVersion, MsgJobAck, 0, 0, 200, 0, 0, 0}); err == nil {
		t.Fatal("unknown status accepted")
	}
	if _, err := DecodeJobAck([]byte{MsgAdd, 0, 0, 0, 0}); !errors.Is(err, errWireVersion) {
		t.Fatalf("no version octet: %v", err)
	}
	// Err round trip: every status maps to the sentinel the wire client
	// needs for errors.Is parity with in-process callers.
	if AckAdmitted.Err() != nil || AckEvicting.Err() != nil {
		t.Fatal("success ack carries an error")
	}
	if !errors.Is(AckErrDraining.Err(), ErrJobDraining) || !errors.Is(AckEvicted.Err(), ErrJobEvicted) {
		t.Fatal("ack error mapping broken")
	}
	if !errors.Is(AckBackpressure.Err(), ErrBackpressure) {
		t.Fatal("backpressure ack error mapping broken")
	}
}

// TestJobAdmitRoundTrip pins the widened admit codec: the weight rides the
// wire untouched (clamping is the admission path's job) and truncation is
// identified.
func TestJobAdmitRoundTrip(t *testing.T) {
	for _, weight := range []int{0, 1, 4, MaxWeight} {
		pkt := EncodeJobAdmit(JobAdmit{Job: 513, JobSpec: JobSpec{Weight: weight}})
		adm, err := DecodeJobAdmit(pkt)
		job, got := adm.Job, adm.Weight
		if err != nil || job != 513 || got != weight {
			t.Fatalf("weight %d: job=%d got=%d err=%v", weight, job, got, err)
		}
	}
	// The bare EncodeJobAdmit carries the default weight 1.
	if adm, err := DecodeJobAdmit(EncodeJobAdmit(JobAdmit{Job: 3, JobSpec: JobSpec{Weight: 1}})); err != nil || adm.Weight != 1 {
		t.Fatalf("default admit weight = %d, err=%v", adm.Weight, err)
	}
	if _, err := DecodeJobAdmit(EncodeJobAdmit(JobAdmit{Job: 0, JobSpec: JobSpec{Weight: 1}})[:5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated admit: %v", err)
	}
	if _, err := DecodeJobAdmit(append(EncodeJobAdmit(JobAdmit{Job: 0, JobSpec: JobSpec{Weight: 1}}), 9)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeJobAdmit(EncodeJobEvict(0)); err == nil {
		t.Fatal("evict frame accepted as admit")
	}
	if _, err := DecodeJobAdmit([]byte{MsgAdd, 0, 0, 0}); !errors.Is(err, errWireVersion) {
		t.Fatalf("no version octet: %v", err)
	}
}

// TestLifecycleValidation covers the new Config checks.
func TestLifecycleValidation(t *testing.T) {
	base := Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	for name, mutate := range map[string]func(*Config){
		"negative capacity":   func(c *Config) { c.Capacity = -1 },
		"capacity under jobs": func(c *Config) { c.Jobs = 3; c.Capacity = 2 },
		"capacity over ids":   func(c *Config) { c.Capacity = MaxJobs + 1 },
		"negative drain":      func(c *Config) { c.DrainTimeout = -time.Second },
		"shards over cap":     func(c *Config) { c.Capacity = 2; c.Shards = 2*2*c.Pool + 1 },
	} {
		c := base
		mutate(&c)
		if _, err := NewSwitch(c); err == nil {
			t.Errorf("%s accepted: %+v", name, c)
		}
	}
	// Capacity widens the slot space exactly like extra jobs do.
	c := base
	c.Capacity = 3
	c.Shards = 3 * 2 * c.Pool
	if _, err := NewSwitch(c); err != nil {
		t.Errorf("max shards with capacity 3 rejected: %v", err)
	}
}

// TestSoakWeightedChurnUnderLoss is the scheduler's soak acceptance test:
// tenants with mixed weights join and leave mid-run over a 10%-lossy
// fabric while a long-lived weighted tenant reduces throughout. Nothing
// may starve (every reduce completes with per-job counters matching its
// load), the per-id gauges and per-shard deficit ledgers must balance after
// the churn, and the backpressure the contention provokes must recover —
// deferred binds are retransmitted and complete, never wedging a tenant.
func TestSoakWeightedChurnUnderLoss(t *testing.T) {
	cfg := dynCfg(2, 4, 2, 1, 4)
	cfg.Weights = []int{2}
	cfg.DrainTimeout = 200 * time.Millisecond
	// A generous round age keeps deferral (not the stall bound) the
	// contention path: a job that outruns its weight share inside a round
	// is backpressured until the others spend their budget, which is the
	// behavior this soak exists to stress. Still far below the workers'
	// starvation budget (20ms timeout × 2000 retries).
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setSchedRoundAge(sw, 50*time.Millisecond)
	fab, err := transport.NewMemory(transport.MemoryConfig{
		Workers: cfg.Ports(), BatchHandler: sw.HandleBatch,
		UplinkLoss: 0.10, DownlinkLoss: 0.10, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}

	// reduceJob runs one tenant's full worker set to completion and
	// returns the per-worker errors.
	reduceJob := func(job, n int, seed int64) []error {
		epoch := sw.JobEpoch(job)
		vecs := gradients.NewGenerator(gradients.ResNet50, seed).WorkerGradients(cfg.Workers, n)
		errs := make([]error, cfg.Workers)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wk := NewJobWorker(job, w, fab, cfg)
				wk.Timeout = 20 * time.Millisecond
				wk.Retries = 2000
				wk.Epoch = epoch
				_, errs[w] = wk.Reduce(vecs[w])
			}(w)
		}
		wg.Wait()
		return errs
	}
	mustReduce := func(phase string, job, n int, seed int64) {
		t.Helper()
		for w, err := range reduceJob(job, n, seed) {
			if err != nil {
				t.Fatalf("%s: job %d worker %d starved: %v", phase, job, w, err)
			}
		}
		if st, _ := sw.JobStats(job); st.Completions < uint64(n) {
			t.Fatalf("%s: job %d completed %d of %d chunks", phase, job, st.Completions, n)
		}
	}
	waitVacant := func(job int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for sw.JobPhaseOf(job) != PhaseVacant {
			if time.Now().After(deadline) {
				t.Fatalf("job %d never drained", job)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// The long-lived tenant (weight 2) reduces across the whole churn.
	const n0 = 200
	vecs0 := gradients.NewGenerator(gradients.VGG19, 77).WorkerGradients(cfg.Workers, n0)
	errs0 := make([]error, cfg.Workers)
	var wg0 sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg0.Add(1)
		go func(w int) {
			defer wg0.Done()
			wk := NewJobWorker(0, w, fab, cfg)
			wk.Timeout = 20 * time.Millisecond
			wk.Retries = 2000
			_, errs0[w] = wk.Reduce(vecs0[w])
		}(w)
	}

	// Phase 1: three weighted tenants join and flood alongside job 0.
	for job, weight := range map[int]int{1: 1, 2: 2, 3: 4} {
		if err := sw.Admit(job, JobSpec{Weight: weight}); err != nil {
			t.Fatalf("admit %d: %v", job, err)
		}
		if st, _ := sw.JobStats(job); st.Weight != weight {
			t.Fatalf("job %d weight = %d, want %d", job, st.Weight, weight)
		}
	}
	var wg1 sync.WaitGroup
	for _, job := range []int{1, 2, 3} {
		wg1.Add(1)
		go func(job int) {
			defer wg1.Done()
			mustReduce("phase 1", job, 64, int64(100+job))
		}(job)
	}
	wg1.Wait()

	// Phase 2: everyone but job 0 leaves; jobs 1 and 3 rejoin with their
	// weights swapped and reduce again under the fresh incarnation epochs.
	for _, job := range []int{1, 2, 3} {
		if err := sw.Evict(job); err != nil {
			t.Fatalf("evict %d: %v", job, err)
		}
		waitVacant(job)
	}
	if err := sw.Admit(1, JobSpec{Weight: 4}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Admit(3, JobSpec{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	var wg2 sync.WaitGroup
	for _, job := range []int{1, 3} {
		wg2.Add(1)
		go func(job int) {
			defer wg2.Done()
			mustReduce("phase 2", job, 64, int64(200+job))
		}(job)
	}
	wg2.Wait()

	// The long-lived tenant sailed through both phases.
	wg0.Wait()
	for w, err := range errs0 {
		if err != nil {
			t.Fatalf("job 0 worker %d starved during churn: %v", w, err)
		}
	}
	st0, _ := sw.JobStats(0)
	if st0.Completions != n0 {
		t.Fatalf("job 0 completions = %d, want %d", st0.Completions, n0)
	}

	// Quiesce everything and audit the ledgers.
	for _, job := range []int{1, 3} {
		if err := sw.Evict(job); err != nil {
			t.Fatalf("final evict %d: %v", job, err)
		}
		waitVacant(job)
	}
	r := sw.Rejects()
	if r.CrossJob != 0 {
		t.Fatalf("tenant isolation violated during churn: %+v", r)
	}
	// Contention between four weighted tenants over a lossy fabric must
	// have provoked scheduler defers — and everything completed anyway:
	// that is "Rejects.Backpressure recovers".
	if r.Backpressure == 0 {
		t.Error("soak run never exercised backpressure; contention too weak to prove recovery")
	}
	checkSchedInvariants(t, sw)
	auditSwitch(t, "after the soak", sw)
	t.Logf("soak: %d backpressure defers, job 0 retransmits %d", r.Backpressure, st0.Retransmits)
}

// TestLifecycleChurnRace hammers admit/evict against concurrent traffic on
// every job id — run under -race this is the control-plane race test.
func TestLifecycleChurnRace(t *testing.T) {
	cfg := dynCfg(1, 4, 4, 2, 4)
	cfg.DrainTimeout = 5 * time.Millisecond
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			job := g
			for c := uint32(0); ; c++ {
				select {
				case <-stop:
					return
				default:
				}
				handle(sw, cfg.Port(job, 0), EncodeAddProfile(job, c%64, 0, core.DefaultProfile, []float32{1}))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			job := i % 4
			if sw.JobPhaseOf(job) == PhaseAdmitted {
				_ = sw.Evict(job)
			} else {
				_ = sw.Admit(job, JobSpec{})
			}
			time.Sleep(200 * time.Microsecond)
		}
		close(stop)
	}()
	wg.Wait()
	// Traffic raced every release: whatever is vacant now must have had its
	// gauges zeroed after the last section that saw it live.
	sw.lifeMu.Lock()
	defer sw.lifeMu.Unlock()
	auditSwitch(t, "after the race", sw)
}
