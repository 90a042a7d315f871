package main

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// startSwitch serves a dynamic switch on a loopback UDP socket,
// the way fpisa-switch's main loop does, and returns its address.
func startSwitch(t *testing.T, cfg aggservice.Config) (*aggservice.Switch, string) {
	t.Helper()
	sw, err := aggservice.NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	srv, err := transport.NewUDPServer(conn, cfg.Ports())
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(sw.HandleBatch) }()
	return sw, conn.LocalAddr().String()
}

func dynConfig() aggservice.Config {
	return aggservice.Config{
		Workers: 2, Pool: 2, Modules: 1, Shards: 2, Jobs: 1, Capacity: 2,
		Dynamic: true, Mode: core.ModeApprox, Arch: pisa.BaseArch(),
	}
}

// TestAdmitEvictRoundTrip drives the full operator workflow over real UDP:
// admit a job, see its stats become queryable, evict it, and watch the
// switch refuse further operations — each with the right process-level
// outcome (nil vs error) for script gating.
func TestAdmitEvictRoundTrip(t *testing.T) {
	sw, addr := startSwitch(t, dynConfig())
	const probeTimeout = 500 * time.Millisecond

	var out strings.Builder
	if err := admitRequest(&out, addr, 1, 1, "", "", probeTimeout); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if !strings.Contains(out.String(), "job 1 admitted") {
		t.Fatalf("admit output: %q", out.String())
	}
	if ph := sw.JobPhaseOf(1); ph != aggservice.PhaseAdmitted {
		t.Fatalf("phase after wire admit: %v", ph)
	}

	// Stats for the fresh job answer with its phase.
	out.Reset()
	if err := queryJobStats(&out, addr, 1, probeTimeout); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(out.String(), "job 1 (admitted)") {
		t.Fatalf("stats output: %q", out.String())
	}

	// Double admit is refused with the sentinel a script can gate on.
	if err := admitRequest(&out, addr, 1, 1, "", "", probeTimeout); !errors.Is(err, aggservice.ErrAlreadyAdmitted) {
		t.Fatalf("double admit: %v", err)
	}

	out.Reset()
	if err := evictRequest(&out, addr, 1, probeTimeout); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if !strings.Contains(out.String(), "job 1 evicting") {
		t.Fatalf("evict output: %q", out.String())
	}
	if err := evictRequest(&out, addr, 1, probeTimeout); !errors.Is(err, aggservice.ErrNotAdmitted) {
		t.Fatalf("double evict: %v", err)
	}
	if err := admitRequest(&out, addr, 9, 1, "", "", probeTimeout); !errors.Is(err, aggservice.ErrUnknownJob) {
		t.Fatalf("admit unknown: %v", err)
	}
}

// TestAdmitWithWeight drives a weighted admission over real UDP: the ack
// must echo the applied weight and epoch, the job's stats must report the
// weight, and a requested weight of 0 — which the switch clamps to 1 —
// must surface as a non-zero-exit error rather than a silent default.
func TestAdmitWithWeight(t *testing.T) {
	sw, addr := startSwitch(t, dynConfig())
	const probeTimeout = 500 * time.Millisecond

	var out strings.Builder
	if err := admitRequest(&out, addr, 1, 4, "", "", probeTimeout); err != nil {
		t.Fatalf("weighted admit: %v", err)
	}
	if !strings.Contains(out.String(), "job 1 admitted (weight 4, profile f32/trunc, class training, epoch 0)") {
		t.Fatalf("weighted admit output: %q", out.String())
	}
	if st, _ := sw.JobStats(1); st.Weight != 4 {
		t.Fatalf("switch applied weight %d, want 4", st.Weight)
	}
	out.Reset()
	if err := queryJobStats(&out, addr, 1, probeTimeout); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(out.String(), "scheduler weight") || !strings.Contains(out.String(), " 4") {
		t.Fatalf("stats output lacks the weight: %q", out.String())
	}

	// The clamp case: weight 0 is admitted at the floor 1, and the command
	// reports the clamp as an error a script can gate on.
	if err := evictRequest(&out, addr, 1, probeTimeout); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := admitRequest(&out, addr, 1, 0, "", "", probeTimeout)
	if err == nil || !strings.Contains(err.Error(), "clamped") {
		t.Fatalf("weight-0 clamp not surfaced: err=%v", err)
	}
	if !strings.Contains(out.String(), "(weight 1, profile f32/trunc, class training, epoch 1)") {
		t.Fatalf("clamp output: %q", out.String())
	}
	if st, _ := sw.JobStats(1); st.Weight != 1 {
		t.Fatalf("clamped weight = %d, want 1", st.Weight)
	}

	// Out-of-space weights are refused locally, before any datagram.
	if err := admitRequest(&out, addr, 2, aggservice.MaxWeight+1, "", "", time.Millisecond); err == nil {
		t.Fatal("oversized weight accepted")
	}
	if err := admitRequest(&out, addr, 2, -1, "", "", time.Millisecond); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestAdmitWithProfile drives a profile-carrying admission over real UDP:
// the ack must echo the applied profile, the stats probe must report it,
// and a profile the switch refuses must surface the sentinel. A malformed
// -profile string fails locally before any datagram.
func TestAdmitWithProfile(t *testing.T) {
	sw, addr := startSwitch(t, dynConfig())
	const probeTimeout = 500 * time.Millisecond

	var out strings.Builder
	if err := admitRequest(&out, addr, 1, 2, "bf16/trunc", "", probeTimeout); err != nil {
		t.Fatalf("profiled admit: %v", err)
	}
	if !strings.Contains(out.String(), "job 1 admitted (weight 2, profile bf16/trunc, class training, epoch 0)") {
		t.Fatalf("profiled admit output: %q", out.String())
	}
	if st, _ := sw.JobStats(1); st.Profile.String() != "bf16/trunc" {
		t.Fatalf("switch applied profile %s", st.Profile)
	}
	out.Reset()
	if err := queryJobStats(&out, addr, 1, probeTimeout); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(out.String(), "numeric profile") || !strings.Contains(out.String(), "bf16/trunc") {
		t.Fatalf("stats output lacks the profile: %q", out.String())
	}

	// An invalid profile — RNE with no guard bit to round on — is caught
	// by ParseProfile on the client, before any datagram leaves (the
	// switch would refuse it with AckErrBadProfile anyway; the admit
	// fuzzer and aggservice's rejection tests cover that wire path).
	out.Reset()
	err := admitRequest(&out, addr, 0, 1, "f16/rne", "", time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "guard") {
		t.Fatalf("invalid profile not refused locally: %v", err)
	}
	if err := admitRequest(&out, addr, 0, 1, "f8/chop", "", time.Millisecond); err == nil {
		t.Fatal("garbage profile accepted")
	}
}

// TestAdmitWithClassAndDrain drives a class-carrying admission over real
// UDP: the ack must echo the provisioned workload class, the stats probe
// must report it, and the operator drain must harvest the analytics
// registers the class provisioned. A malformed -class string fails
// locally before any datagram, as does an unknown -kind.
func TestAdmitWithClassAndDrain(t *testing.T) {
	cfg := dynConfig()
	sw, addr := startSwitch(t, cfg)
	const probeTimeout = 500 * time.Millisecond

	var out strings.Builder
	if err := admitRequest(&out, addr, 1, 1, "", "query:4:64", probeTimeout); err != nil {
		t.Fatalf("class admit: %v", err)
	}
	if !strings.Contains(out.String(), "class query(topn=4,groups=64)") {
		t.Fatalf("class admit output: %q", out.String())
	}
	want := aggservice.AdmitClass{Class: aggservice.ClassQuery, TopN: 4, Groups: 64}
	if st, _ := sw.JobStats(1); st.Class != want {
		t.Fatalf("switch applied class %v, want %v", st.Class, want)
	}
	out.Reset()
	if err := queryJobStats(&out, addr, 1, probeTimeout); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(out.String(), "workload class") || !strings.Contains(out.String(), "query(topn=4,groups=64)") {
		t.Fatalf("stats output lacks the class: %q", out.String())
	}

	// Fold a few grouped tuples in-process, then harvest them with the
	// operator drain over the wire: read-and-reset, so a second drain
	// comes back empty.
	batch := aggservice.EncodeTuples(1, 0, sw.JobEpoch(1), aggservice.OpQueryAgg,
		[]uint32{3, 3, 7}, []float32{10, 5, 2})
	var replies transport.DeliveryList
	if sw.HandleBatch(cfg.Port(1, 0), [][]byte{batch}, &replies); replies.Len() == 0 {
		t.Fatal("tuple batch produced no ack")
	}
	out.Reset()
	if err := drainRequest(&out, addr, 1, "groups", false, probeTimeout); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "drained 2 groups entries") ||
		!strings.Contains(out.String(), "15") || !strings.Contains(out.String(), "2") {
		t.Fatalf("drain output: %q", out.String())
	}
	out.Reset()
	if err := drainRequest(&out, addr, 1, "groups", false, probeTimeout); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if !strings.Contains(out.String(), "drained 0 groups entries") {
		t.Fatalf("drain is not read-and-reset: %q", out.String())
	}

	// Local refusals, before any datagram leaves.
	if err := admitRequest(&out, addr, 2, 1, "", "query:banana", time.Millisecond); err == nil {
		t.Fatal("malformed class accepted")
	}
	if err := drainRequest(&out, addr, 1, "bogus", false, time.Millisecond); err == nil || !strings.Contains(err.Error(), "want groups") {
		t.Fatalf("unknown drain kind not refused locally: %v", err)
	}
}

// TestQueryUnknownJobErrors is the exit-code satellite: a stats probe for
// a job the switch does not know must come back as an error, not success
// with empty output.
func TestQueryUnknownJobErrors(t *testing.T) {
	_, addr := startSwitch(t, dynConfig())
	var out strings.Builder
	err := queryJobStats(&out, addr, 7, 500*time.Millisecond)
	if !errors.Is(err, aggservice.ErrUnknownJob) {
		t.Fatalf("unknown-job stats: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("unknown-job stats still printed: %q", out.String())
	}
	if err := queryJobStats(&out, addr, -1, time.Millisecond); err == nil {
		t.Fatal("negative job accepted")
	}
	if err := queryJobStats(&out, addr, aggservice.MaxJobs, time.Millisecond); err == nil {
		t.Fatal("out-of-space job accepted")
	}
}

// TestLifecycleDisabledOverWire: a static daemon refuses wire admits with
// the dedicated sentinel.
func TestLifecycleDisabledOverWire(t *testing.T) {
	cfg := dynConfig()
	cfg.Dynamic = false
	_, addr := startSwitch(t, cfg)
	var out strings.Builder
	err := admitRequest(&out, addr, 1, 1, "", "", 500*time.Millisecond)
	if !errors.Is(err, aggservice.ErrLifecycleDisabled) {
		t.Fatalf("disabled admit: %v", err)
	}
}

// TestObserverExchangeTimesOut: with nothing listening, the probe gives up
// with an error instead of hanging or succeeding.
func TestObserverExchangeTimesOut(t *testing.T) {
	// A socket that never answers.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var out strings.Builder
	if err := queryJobStats(&out, conn.LocalAddr().String(), 0, 20*time.Millisecond); err == nil {
		t.Fatal("silent switch produced a stats success")
	}
}
