package aggservice

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// reduceJobs runs every job's workers concurrently over one shared
// in-memory fabric and returns results[job][worker].
func reduceJobs(t *testing.T, sw *Switch, cfg Config, vecs map[int][][]float32, loss float64, seed int64) map[int][][]float32 {
	t.Helper()
	fab, err := transport.NewMemory(transport.MemoryConfig{
		Workers: cfg.Ports(), BatchHandler: sw.HandleBatch,
		UplinkLoss: loss, DownlinkLoss: loss, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[int][][]float32, len(vecs))
	errs := make(map[int][]error, len(vecs))
	for job := range vecs {
		results[job] = make([][]float32, cfg.Workers)
		errs[job] = make([]error, cfg.Workers)
	}
	var wg sync.WaitGroup
	for job, jv := range vecs {
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(job, w int, vec []float32) {
				defer wg.Done()
				wk := NewJobWorker(job, w, fab, cfg)
				wk.Timeout = 30 * time.Millisecond
				wk.Retries = 500
				results[job][w], errs[job][w] = wk.Reduce(vec)
			}(job, w, jv[w])
		}
	}
	wg.Wait()
	for job, je := range errs {
		for w, err := range je {
			if err != nil {
				t.Fatalf("job %d worker %d: %v", job, w, err)
			}
		}
	}
	return results
}

// TestTwoJobsShareOneSwitch is the acceptance scenario: two jobs with
// distinct JobIDs complete all-reduce concurrently on one sharded switch,
// each job's result bit-identical to a single-tenant run of the same
// vectors, with isolated per-job stats.
func TestTwoJobsShareOneSwitch(t *testing.T) {
	const n = 40
	cfg := Config{Workers: 3, Pool: 4, Modules: 1, Shards: 4, Jobs: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Jobs() != 2 {
		t.Fatalf("jobs = %d", sw.Jobs())
	}
	vecs := map[int][][]float32{
		0: gradients.NewGenerator(gradients.VGG19, 21).WorkerGradients(cfg.Workers, n),
		1: gradients.NewGenerator(gradients.ResNet50, 22).WorkerGradients(cfg.Workers, n),
	}
	results := reduceJobs(t, sw, cfg, vecs, 0, 1)

	// Within a job, the result is one broadcast: every worker must hold
	// bit-identical output.
	for job := 0; job < 2; job++ {
		for w := 1; w < cfg.Workers; w++ {
			for i := 0; i < n; i++ {
				if results[job][w][i] != results[job][0][i] {
					t.Fatalf("job %d: workers 0 and %d disagree at elem %d", job, w, i)
				}
			}
		}
	}
	// Against a solo single-tenant run of the same vectors, results agree
	// to aggregation accuracy (concurrent scheduling permutes arrival
	// order, which moves FPISA-A's low bits, as in the loss tests).
	for job := 0; job < 2; job++ {
		soloCfg := cfg
		soloCfg.Jobs = 1
		solo, _, _ := runReduction(t, soloCfg, vecs[job], 0, 1)
		for i := 0; i < n; i++ {
			diff := math.Abs(float64(results[job][0][i] - solo[0][i]))
			if diff > 1e-5+1e-3*math.Abs(float64(solo[0][i])) {
				t.Fatalf("job %d elem %d: tenant run %g vs solo run %g",
					job, i, results[job][0][i], solo[0][i])
			}
		}
	}

	// Per-job stats are isolated and each accounts exactly its own load.
	nChunks := uint64(n)
	for job := 0; job < 2; job++ {
		st, ok := sw.JobStats(job)
		if !ok {
			t.Fatalf("job %d stats missing", job)
		}
		if st.Adds != uint64(cfg.Workers)*nChunks {
			t.Errorf("job %d adds = %d, want %d", job, st.Adds, uint64(cfg.Workers)*nChunks)
		}
		if st.Completions != nChunks {
			t.Errorf("job %d completions = %d, want %d", job, st.Completions, nChunks)
		}
		if st.Outstanding != 0 {
			t.Errorf("job %d: outstanding=%d", job, st.Outstanding)
		}
	}
	if _, ok := sw.JobStats(2); ok {
		t.Error("stats for an unadmitted job")
	}
	if adds, _, completions := sw.Stats(); adds != 2*uint64(cfg.Workers)*nChunks || completions != 2*nChunks {
		t.Errorf("aggregate stats: adds=%d completions=%d", adds, completions)
	}
}

// TestTwoJobsUnderLossAndRace hammers one sharded switch with two jobs
// through a lossy fabric — run under -race this is the tenancy race test.
func TestTwoJobsUnderLossAndRace(t *testing.T) {
	const n = 32
	cfg := Config{Workers: 3, Pool: 4, Modules: 1, Shards: 8, Jobs: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vecs := map[int][][]float32{
		0: gradients.NewGenerator(gradients.VGG19, 31).WorkerGradients(cfg.Workers, n),
		1: gradients.NewGenerator(gradients.BERT, 32).WorkerGradients(cfg.Workers, n),
	}
	results := reduceJobs(t, sw, cfg, vecs, 0.1, 99)
	// Within a job every worker holds the same broadcast result.
	for job, rs := range results {
		for w := 1; w < len(rs); w++ {
			for i := range rs[w] {
				if rs[w][i] != rs[0][i] {
					t.Fatalf("job %d: workers 0 and %d disagree at %d", job, w, i)
				}
			}
		}
	}
	for job := 0; job < 2; job++ {
		if st, _ := sw.JobStats(job); st.Completions != n {
			t.Errorf("job %d completions = %d, want %d", job, st.Completions, n)
		}
	}
}

// TestStuckTenantIsolated pins tenant isolation against a tenant that holds
// its slots open: a job whose chunks never complete pins only its own
// private slot range, while the other tenant's all-reduce completes
// unimpeded and neither ledger leaks into the other.
func TestStuckTenantIsolated(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 1, Modules: 1, Shards: 2, Jobs: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Job 0 misbehaves: worker 0 binds both slots of its range (chunks 0
	// and 1) and the partner's packets never come.
	for c := uint32(0); c < 2; c++ {
		if ds := handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, c, 0, core.DefaultProfile, []float32{1})); ds != nil {
			t.Fatalf("lone add of chunk %d completed: %v", c, ds)
		}
	}
	st0, _ := sw.JobStats(0)
	if st0.Adds != 2 || st0.Outstanding != 2 {
		t.Fatalf("job 0: adds=%d outstanding=%d, want 2/2", st0.Adds, st0.Outstanding)
	}

	// Job 1 runs a real all-reduce on the same switch: job 0's stuck slots
	// are in job 0's range, so its pressure never reaches job 1.
	const n = 6
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Ports(), BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	vec := []float32{1, 2, 3, 4, 5, 6}
	results := make([][]float32, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := NewJobWorker(1, w, fab, cfg)
			wk.Timeout = 30 * time.Millisecond
			results[w], errs[w] = wk.Reduce(vec)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("job 1 worker %d: %v", w, err)
		}
	}
	for i, v := range vec {
		if results[0][i] != 2*v {
			t.Fatalf("job 1 elem %d = %g, want %g", i, results[0][i], 2*v)
		}
	}
	st1, _ := sw.JobStats(1)
	if st1.Completions != n || st1.Outstanding != 0 {
		t.Fatalf("job 1: %+v", st1)
	}
	// Job 0's ledger is untouched by job 1's run.
	if got, _ := sw.JobStats(0); got != st0 {
		t.Fatalf("job 0 stats drifted: %+v vs %+v", got, st0)
	}
}

// TestWireRejection covers every reject class: malformed frames — a
// datagram in the old unversioned (v1) framing among them — unknown jobs and
// cross-job slot access.
func TestWireRejection(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 2, Modules: 1, Jobs: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacyAdd := []byte{MsgAdd, 0, 0, 0, 0, 0x3f, 0x80, 0, 0} // v1 framing
	cases := []struct {
		name string
		port int
		pkt  []byte
		get  func(WireRejects) uint64
	}{
		{"legacy v1 add", 0, legacyAdd, func(r WireRejects) uint64 { return r.Malformed }},
		{"legacy v1 type 2", 0, []byte{2, 0, 0}, func(r WireRejects) uint64 { return r.Malformed }},
		{"unknown version", 0, []byte{0x7f, MsgAdd, 0, 0}, func(r WireRejects) uint64 { return r.Malformed }},
		{"short frame", 0, []byte{WireVersion}, func(r WireRejects) uint64 { return r.Malformed }},
		{"truncated add", 0, EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1})[:6], func(r WireRejects) uint64 { return r.Malformed }},
		{"oversized add", 0, append(EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1}), 0xde), func(r WireRejects) uint64 { return r.Malformed }},
		{"unknown type", 0, []byte{WireVersion, 9, 0, 0}, func(r WireRejects) uint64 { return r.Malformed }},
		{"bad job", 0, EncodeAddProfile(7, 0, 0, core.DefaultProfile, []float32{1}), func(r WireRejects) uint64 { return r.BadJob }},
		{"cross job", 0, EncodeAddProfile(1, 0, 0, core.DefaultProfile, []float32{1}), func(r WireRejects) uint64 { return r.CrossJob }},
		{"cross job reversed", cfg.Port(1, 0), EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1}), func(r WireRejects) uint64 { return r.CrossJob }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.get(sw.Rejects())
			if ds := handle(sw, tc.port, tc.pkt); ds != nil {
				t.Fatalf("rejected packet produced deliveries: %v", ds)
			}
			if after := tc.get(sw.Rejects()); after != before+1 {
				t.Fatalf("reject counter %d → %d, want +1", before, after)
			}
		})
	}
	if adds, _, _ := sw.Stats(); adds != 0 {
		t.Fatalf("rejected traffic mutated slot state: adds=%d", adds)
	}
	if r := sw.Rejects(); r.Legacy != 0 {
		t.Fatalf("Legacy = %d, want always 0", r.Legacy)
	}
}

// TestReservedType2Rejected pins the retired in-protocol batch frame: a
// well-formed v2 type-2 datagram — one length-prefixed ADD, exactly what
// the old framing carried — is refused whole on a worker port and on the
// observer frame, counted malformed once, and never reaches a slot.
func TestReservedType2Rejected(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 1, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	add := EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1})
	frame := append([]byte{WireVersion, 2, 0, 1, 0, byte(len(add))}, add...)
	for _, port := range []int{0, transport.ObserverWorker} {
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ds := handle(sw, port, frame); ds != nil {
			t.Fatalf("port %d: type-2 frame produced deliveries: %v", port, ds)
		}
		if r := sw.Rejects(); r.Malformed != 1 || r.Legacy != 0 {
			t.Fatalf("port %d: rejects %+v, want exactly one malformed", port, r)
		}
		if adds, _, _ := sw.Stats(); adds != 0 {
			t.Fatalf("port %d: type-2 frame reached a slot: adds=%d", port, adds)
		}
	}
}

// TestStatsOverTheWire exercises the MsgStats round trip from a worker
// port and from the out-of-band observer.
func TestStatsOverTheWire(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Jobs: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One completed chunk for job 1 (single worker completes instantly).
	if ds := handle(sw, cfg.Port(1, 0), EncodeAddProfile(1, 0, 0, core.DefaultProfile, []float32{2.5})); len(ds) != 1 {
		t.Fatalf("deliveries: %v", ds)
	}
	for _, port := range []int{0, transport.ObserverWorker} {
		ds := handle(sw, port, EncodeStatsReq(1))
		if len(ds) != 1 || ds[0].Broadcast || ds[0].Worker != port {
			t.Fatalf("port %d: stats deliveries %v", port, ds)
		}
		job, st, err := DecodeStatsReply(ds[0].Packet)
		if err != nil {
			t.Fatal(err)
		}
		if job != 1 || st.Adds != 1 || st.Completions != 1 || st.Outstanding != 0 {
			t.Fatalf("port %d: job=%d stats=%+v", port, job, st)
		}
	}
	// Observers are read-only; stats for unknown jobs are answered with an
	// explicit MsgJobAck error (and counted), so probes can gate on it.
	if ds := handle(sw, transport.ObserverWorker, EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1})); ds != nil {
		t.Fatalf("observer ADD accepted: %v", ds)
	}
	before := sw.Rejects().BadJob
	ds := handle(sw, 0, EncodeStatsReq(9))
	if len(ds) != 1 {
		t.Fatalf("stats for unknown job: deliveries %v", ds)
	}
	ack, err := DecodeJobAck(ds[0].Packet)
	job, status := ack.Job, ack.Status
	if err != nil || job != 9 || status != AckErrUnknownJob {
		t.Fatalf("unknown-job ack: job=%d status=%v err=%v", job, status, err)
	}
	if got := sw.Rejects().BadJob; got != before+1 {
		t.Fatalf("BadJob %d → %d, want +1", before, got)
	}
}

// TestMultiJobResultDeliveriesScoped verifies completions in a multi-job
// switch are delivered only to the owning job's port range.
func TestMultiJobResultDeliveriesScoped(t *testing.T) {
	cfg := Config{Workers: 2, Pool: 2, Modules: 1, Jobs: 3,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const job = 1
	if ds := handle(sw, cfg.Port(job, 0), EncodeAddProfile(job, 0, 0, core.DefaultProfile, []float32{1})); ds != nil {
		t.Fatalf("first add delivered: %v", ds)
	}
	ds := handle(sw, cfg.Port(job, 1), EncodeAddProfile(job, 0, 0, core.DefaultProfile, []float32{2}))
	if len(ds) != cfg.Workers {
		t.Fatalf("got %d deliveries, want %d", len(ds), cfg.Workers)
	}
	seen := map[int]bool{}
	for _, d := range ds {
		if d.Broadcast {
			t.Fatalf("multi-job completion used a broadcast: %v", d)
		}
		if d.Worker/cfg.Workers != job {
			t.Fatalf("delivery to port %d leaks outside job %d", d.Worker, job)
		}
		seen[d.Worker] = true
		gotJob, _, vals, _, err := DecodeResultProfile(d.Packet, 1, core.DefaultProfile)
		if err != nil || gotJob != job || vals[0] != 3 {
			t.Fatalf("result job=%d vals=%v err=%v", gotJob, vals, err)
		}
	}
	if len(seen) != cfg.Workers {
		t.Fatalf("deliveries hit %d distinct ports, want %d", len(seen), cfg.Workers)
	}
}

// TestJobsValidation covers the tenancy configuration checks.
func TestJobsValidation(t *testing.T) {
	base := Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	for name, mutate := range map[string]func(*Config){
		"negative jobs":     func(c *Config) { c.Jobs = -1 },
		"too many jobs":     func(c *Config) { c.Jobs = MaxJobs + 1 },
		"shards over slots": func(c *Config) { c.Jobs = 2; c.Shards = 2*2*c.Pool + 1 },
	} {
		c := base
		mutate(&c)
		if _, err := NewSwitch(c); err == nil {
			t.Errorf("%s accepted: %+v", name, c)
		}
	}
	// Jobs widen the slot space: shard counts legal only under multi-job.
	c := base
	c.Jobs = 3
	c.Shards = 3 * 2 * c.Pool
	if _, err := NewSwitch(c); err != nil {
		t.Errorf("max shards with 3 jobs rejected: %v", err)
	}
	// Worker outside its job errors cleanly.
	w := NewJobWorker(5, 0, nil, base)
	if _, err := w.Reduce([]float32{1}); err == nil {
		t.Error("out-of-range job accepted by Reduce")
	}
}

// delivered reports whether any delivery in ds carries a v2 message of the
// given type.
func delivered(ds []transport.Delivery, typ byte) bool {
	for _, d := range ds {
		if len(d.Packet) >= 2 && d.Packet[0] == WireVersion && d.Packet[1] == typ {
			return true
		}
	}
	return false
}

// TestManyJobsHammerSharded drives eight goroutines across four jobs on
// one sharded switch with direct Handle calls — the shard/job accounting
// stress test (meaningful chiefly under -race).
func TestManyJobsHammerSharded(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 16, Modules: 1, Shards: 4, Jobs: 4,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const perJob = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			job := g % cfg.jobs()
			for c := g / cfg.jobs(); c < perJob; c += 2 {
				// Resend until the chunk demonstrably completed: with four
				// jobs hammering one switch the fair scheduler may defer a
				// bind (AckBackpressure), and this loop is the test's stand-
				// in for the worker's retransmit path.
				for {
					ds := handle(sw, cfg.Port(job, 0), EncodeAddProfile(job, uint32(c), 0, core.DefaultProfile, []float32{float32(c)}))
					if delivered(ds, MsgResult) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for job := 0; job < cfg.jobs(); job++ {
		st, _ := sw.JobStats(job)
		if st.Completions != perJob {
			t.Errorf("job %d completions = %d, want %d", job, st.Completions, perJob)
		}
	}
	if _, _, completions := sw.Stats(); completions != uint64(cfg.jobs())*perJob {
		t.Errorf("aggregate completions = %d", completions)
	}
}

// TestJobPartitionsDoNotAlias proves slot isolation end to end: identical
// chunk ids in different jobs land in different slots with independent
// sums.
func TestJobPartitionsDoNotAlias(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Shards: 3, Jobs: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 2; job++ {
		want := float32(job + 1)
		ds := handle(sw, cfg.Port(job, 0), EncodeAddProfile(job, 0, 0, core.DefaultProfile, []float32{want}))
		if len(ds) != 1 {
			t.Fatalf("job %d chunk 0: %v", job, ds)
		}
		gotJob, chunk, vals, _, err := DecodeResultProfile(ds[0].Packet, 1, core.DefaultProfile)
		if err != nil || gotJob != job || chunk != 0 || vals[0] != want {
			t.Fatalf("job %d: job=%d chunk=%d vals=%v err=%v", job, gotJob, chunk, vals, err)
		}
	}
}

func ExampleConfig_Port() {
	cfg := Config{Workers: 4, Jobs: 2}
	fmt.Println(cfg.Port(0, 3), cfg.Port(1, 0), cfg.Ports())
	// Output: 3 4 8
}
