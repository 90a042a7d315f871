package aggservice

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// Profiles under test: a guarded round-to-nearest f32 job and a truncating
// bfloat16 job — the two ends of the precision/payload trade the admit
// negotiation exposes.
var (
	profF32G2  = core.NumericProfile{Format: core.FormatF32, Guard: 2, Rounding: core.RoundingRNE}
	profBF16   = core.NumericProfile{Format: core.FormatBF16}
	profF16RNE = core.NumericProfile{Format: core.FormatF16, Guard: 1, Rounding: core.RoundingRNE}
)

// profVal generates deterministic test values that are exactly
// representable in every supported wire format (multiples of 0.25 in
// [-0.5, 1.25]), so accumulation is exact and the expected sums do not
// depend on worker arrival order.
func profVal(job, worker, i int) float32 {
	return float32((worker+2*i+3*job)%8)*0.25 - 0.5
}

// hostReduce computes the per-worker-visible reduction result exactly the
// way the switch does: narrow every contribution to the profile's wire
// format, accumulate in the profile's register arithmetic, then round-trip
// the read-back through the RESULT wire narrowing.
func hostReduce(t *testing.T, cfg Config, prof core.NumericProfile, vecs [][]float32) []float32 {
	t.Helper()
	n := len(vecs[0])
	out := make([]float32, n)
	for base := 0; base < n; base += cfg.Modules {
		m := cfg.Modules
		if base+m > n {
			m = n - base
		}
		ref, err := core.NewProfileAggregator(prof, cfg.Mode, cfg.Modules, 1, cfg.Arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, vec := range vecs {
			if _, err := ref.Add(0, vec[base:base+m]); err != nil {
				t.Fatal(err)
			}
		}
		r, err := ref.ReadReset(0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < m; k++ {
			// The switch narrows the register read-back onto the RESULT
			// wire; the worker widens it back. Apply the same round trip.
			out[base+k] = prof.DecodeValue(prof.EncodeValue(r[k]))
		}
	}
	return out
}

// TestTwoProfilesShareOneSwitch is the tentpole acceptance scenario: two
// jobs with DIFFERENT numeric profiles — f32 with guard bits and RNE
// beside truncating bfloat16 — complete all-reduce concurrently on one
// sharded switch, each job's result bit-exact against a host reference run
// of its own profile's arithmetic, with per-job stats echoing the profile.
func TestTwoProfilesShareOneSwitch(t *testing.T) {
	const n = 37 // odd length: exercises the short tail chunk per profile
	cfg := Config{
		Workers: 3, Pool: 4, Modules: 2, Shards: 4, Jobs: 2,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch(),
		Profiles: []core.NumericProfile{profF32G2, profBF16},
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	vecs := map[int][][]float32{0: nil, 1: nil}
	for job := range vecs {
		for w := 0; w < cfg.Workers; w++ {
			vec := make([]float32, n)
			for i := range vec {
				vec[i] = profVal(job, w, i)
			}
			vecs[job] = append(vecs[job], vec)
		}
	}
	results := reduceJobs(t, sw, cfg, vecs, 0, 1)

	for job, prof := range map[int]core.NumericProfile{0: profF32G2, 1: profBF16} {
		want := hostReduce(t, cfg, prof, vecs[job])
		for w := 0; w < cfg.Workers; w++ {
			for i, got := range results[job][w] {
				if math.Float32bits(got) != math.Float32bits(want[i]) {
					t.Fatalf("job %d (%v) worker %d elem %d: got %x (%v), host reference %x (%v)",
						job, prof, w, i, math.Float32bits(got), got,
						math.Float32bits(want[i]), want[i])
				}
			}
		}
		st, ok := sw.JobStats(job)
		if !ok {
			t.Fatalf("no stats for job %d", job)
		}
		if st.Profile != prof {
			t.Fatalf("job %d stats profile = %v, want %v", job, st.Profile, prof)
		}
		chunks := (n + cfg.Modules - 1) / cfg.Modules
		if st.Completions != uint64(chunks) {
			t.Fatalf("job %d completions = %d, want %d", job, st.Completions, chunks)
		}
		if st.Adds < uint64(chunks*cfg.Workers) {
			t.Fatalf("job %d adds = %d, want >= %d", job, st.Adds, chunks*cfg.Workers)
		}
	}

	// The 16-bit profile halves the ADD value payload relative to f32.
	full := len(EncodeAddProfile(0, 0, 0, profF32G2, []float32{1, 2}))
	half := len(EncodeAddProfile(1, 0, 0, profBF16, []float32{1, 2}))
	if want := full - 2*cfg.Modules; half != want {
		t.Fatalf("bf16 ADD is %d bytes, f32 is %d; want %d", half, full, want)
	}
}

// TestStatsReplyCarriesProfile checks the observer stats wire round-trips
// the job's profile descriptor.
func TestStatsReplyCarriesProfile(t *testing.T) {
	cfg := Config{
		Workers: 1, Pool: 1, Modules: 1, Jobs: 1,
		Mode: core.ModeApprox, Arch: pisa.BaseArch(),
		Profiles: []core.NumericProfile{profBF16},
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := handle(sw, transport.ObserverWorker, EncodeStatsReq(0))
	if len(ds) != 1 {
		t.Fatalf("stats query returned %d deliveries", len(ds))
	}
	job, st, err := DecodeStatsReply(ds[0].Packet)
	if err != nil || job != 0 {
		t.Fatalf("decode stats reply: job=%d err=%v", job, err)
	}
	if st.Profile != profBF16 {
		t.Fatalf("stats profile = %v, want %v", st.Profile, profBF16)
	}
}

// TestAdmitProfileRejections drives every profile the admission must
// refuse — an unknown format octet, guard bits that zero the mantissa
// headroom, and round-to-nearest-even with nothing to round on — through
// both the in-process and the wire control plane, and checks a refusal
// leaves the id vacant and admissible.
func TestAdmitProfileRejections(t *testing.T) {
	cfg := dynCfg(1, 1, 1, 0, 2)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		prof core.NumericProfile
	}{
		{"unknown-format", core.NumericProfile{Format: 9}},
		{"unknown-rounding", core.NumericProfile{Rounding: 7}},
		{"guard-zeroes-headroom", core.NumericProfile{Format: core.FormatF32, Guard: 7}},
		{"rne-without-guard", core.NumericProfile{Format: core.FormatF16, Rounding: core.RoundingRNE}},
	}
	for _, tc := range bad {
		// Job 0 is initially admitted; job 1 is the vacant id under test.
		if err := sw.Admit(1, JobSpec{Weight: 1, Profile: tc.prof}); !errors.Is(err, ErrBadProfile) {
			t.Fatalf("%s: Admit = %v, want ErrBadProfile", tc.name, err)
		}
		ds := handle(sw, transport.ObserverWorker, EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 1, Profile: tc.prof}}))
		if len(ds) != 1 {
			t.Fatalf("%s: wire admit returned %d deliveries", tc.name, len(ds))
		}
		ack, err := DecodeJobAck(ds[0].Packet)
		status := ack.Status
		if err != nil || status != AckErrBadProfile {
			t.Fatalf("%s: wire admit ack = %v (err %v), want AckErrBadProfile", tc.name, status, err)
		}
		if !errors.Is(status.Err(), ErrBadProfile) {
			t.Fatalf("%s: status.Err() = %v", tc.name, status.Err())
		}
		if ph := sw.JobPhaseOf(1); ph != PhaseVacant {
			t.Fatalf("%s: refused admit left job 1 %v", tc.name, ph)
		}
	}
	// The refusals left nothing behind: the id still admits.
	if err := sw.Admit(1, JobSpec{Weight: 1, Profile: profF16RNE}); err != nil {
		t.Fatalf("valid admit after refusals: %v", err)
	}
	if st, _ := sw.JobStats(1); st.Profile != profF16RNE {
		t.Fatalf("job 1 profile = %v, want %v", st.Profile, profF16RNE)
	}
}

// TestAdmitAckEchoesProfile checks a wire admit's ack carries the profile
// the switch actually applied, and that a worker configured from the ack
// completes a reduction.
func TestAdmitAckEchoesProfile(t *testing.T) {
	cfg := dynCfg(2, 2, 2, 1, 2)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := handle(sw, transport.ObserverWorker, EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 3, Profile: profBF16}}))
	if len(ds) != 1 {
		t.Fatalf("admit returned %d deliveries", len(ds))
	}
	ack, err := DecodeJobAck(ds[0].Packet)
	job, status, epoch, weight, prof := ack.Job, ack.Status, ack.Epoch, ack.Weight, ack.Profile
	if err != nil || job != 1 || status != AckAdmitted {
		t.Fatalf("ack: job=%d status=%v err=%v", job, status, err)
	}
	if weight != 3 || prof != profBF16 {
		t.Fatalf("ack echoed weight=%d prof=%v, want 3, %v", weight, prof, profBF16)
	}

	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Ports(), BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]float32, cfg.Workers)
	results := make([][]float32, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		vecs[w] = []float32{profVal(1, w, 0), profVal(1, w, 1), profVal(1, w, 2)}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := NewJobWorker(1, w, fab, cfg)
			wk.Timeout = 30 * time.Millisecond
			wk.Epoch = epoch
			wk.Profile = prof
			results[w], errs[w] = wk.Reduce(vecs[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	want := hostReduce(t, cfg, profBF16, vecs)
	for w := range results {
		for i, got := range results[w] {
			if math.Float32bits(got) != math.Float32bits(want[i]) {
				t.Fatalf("worker %d elem %d: got %v, host reference %v", w, i, got, want[i])
			}
		}
	}
}

// TestProfileChurnReadmit is the churn acceptance scenario: evicting a job
// and re-admitting the same id with a DIFFERENT profile must drop the banks
// with the incarnation on release and build fresh ones under the new
// profile on re-admission, bit-exact against the host reference.
func TestProfileChurnReadmit(t *testing.T) {
	cfg := dynCfg(2, 2, 2, 1, 2)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(job int, prof core.NumericProfile) {
		t.Helper()
		fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Ports(), BatchHandler: sw.HandleBatch})
		if err != nil {
			t.Fatal(err)
		}
		vecs := make([][]float32, cfg.Workers)
		results := make([][]float32, cfg.Workers)
		errs := make([]error, cfg.Workers)
		epoch := sw.JobEpoch(job)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			vecs[w] = []float32{profVal(job, w, 0), profVal(job, w, 1)}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wk := NewJobWorker(job, w, fab, cfg)
				wk.Timeout = 30 * time.Millisecond
				wk.Epoch = epoch
				wk.Profile = prof
				results[w], errs[w] = wk.Reduce(vecs[w])
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("job %d worker %d: %v", job, w, err)
			}
		}
		want := hostReduce(t, cfg, prof, vecs)
		for w := range results {
			for i, got := range results[w] {
				if math.Float32bits(got) != math.Float32bits(want[i]) {
					t.Fatalf("job %d worker %d elem %d: got %v, want %v", job, w, i, got, want[i])
				}
			}
		}
	}

	banks := func(job int) (live int) {
		inc := sw.jobs[job].live.Load()
		if inc == nil {
			return 0
		}
		for _, b := range inc.banks {
			if b.agg != nil && len(b.slot) == sw.perBank {
				live++
			}
		}
		return live
	}

	if err := sw.Admit(1, JobSpec{Weight: 1, Profile: profBF16}); err != nil {
		t.Fatal(err)
	}
	if got := banks(1); got != sw.nsh {
		t.Fatalf("%d of %d banks live after admit", got, sw.nsh)
	}
	run(1, profBF16)

	if err := sw.Evict(1); err != nil {
		t.Fatal(err)
	}
	// Nothing outstanding: the drain finishes synchronously.
	if ph := sw.JobPhaseOf(1); ph != PhaseVacant {
		t.Fatalf("post-evict phase = %v", ph)
	}
	if got := banks(1); got != 0 {
		t.Fatalf("%d banks survive release", got)
	}
	if st, _ := sw.JobStats(1); st.Profile != core.DefaultProfile {
		t.Fatalf("vacant job profile = %v", st.Profile)
	}

	// Re-admit the SAME id with a DIFFERENT profile.
	if err := sw.Admit(1, JobSpec{Weight: 1, Profile: profF16RNE}); err != nil {
		t.Fatalf("re-admit: %v", err)
	}
	if st, _ := sw.JobStats(1); st.Profile != profF16RNE {
		t.Fatalf("re-admitted profile = %v, want %v", st.Profile, profF16RNE)
	}
	run(1, profF16RNE)

	if err := sw.Evict(1); err != nil {
		t.Fatal(err)
	}
	if err := sw.Admit(1, JobSpec{Weight: 1, Profile: profBF16}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Admit(1, JobSpec{Weight: 1, Profile: profBF16}); !errors.Is(err, ErrAlreadyAdmitted) {
		t.Fatalf("double admit: %v", err)
	}
	// Free-list consistency: churning the initially-admitted job 0 (default
	// profile since construction) onto a 16-bit profile also works.
	if err := sw.Evict(0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Admit(0, JobSpec{Weight: 1, Profile: profBF16}); err != nil {
		t.Fatalf("re-admit of the construction-time job: %v", err)
	}
}

// TestWorkerProfileMismatchRejected: a worker speaking a different wire
// format than its job negotiated sends ADDs of the wrong width; the switch
// must refuse them as malformed rather than mis-decode the payload.
func TestWorkerProfileMismatchRejected(t *testing.T) {
	cfg := Config{
		Workers: 1, Pool: 1, Modules: 2, Jobs: 1,
		Mode: core.ModeApprox, Arch: pisa.ExtendedArch(),
		Profiles: []core.NumericProfile{profBF16},
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// f32-width ADD against a bf16 job: 4 extra bytes per module.
	if ds := handle(sw, 0, EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1, 2})); ds != nil {
		t.Fatalf("mismatched ADD produced deliveries: %v", ds)
	}
	if adds, _, _ := sw.Stats(); adds != 0 {
		t.Fatalf("mismatched ADD counted: %d", adds)
	}
	if ds := handle(sw, 0, EncodeAddProfile(0, 0, 0, profBF16, []float32{1, 2})); len(ds) != 1 {
		t.Fatalf("matched ADD deliveries: %v", ds)
	}
}
