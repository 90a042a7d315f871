package aggservice

import (
	"sync"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// evictedNotice returns the epoch octet of the single AckEvicted notice in
// ds, failing the test when ds holds anything else.
func evictedNotice(t *testing.T, ds []transport.Delivery, worker int) uint8 {
	t.Helper()
	if len(ds) != 1 || ds[0].Broadcast || ds[0].Worker != worker {
		t.Fatalf("want one unicast notice to port %d, got %+v", worker, ds)
	}
	ack, err := DecodeJobAck(ds[0].Packet)
	if err != nil || ack.Status != AckEvicted {
		t.Fatalf("want an AckEvicted notice, got %+v (%v)", ack, err)
	}
	return ack.Epoch
}

// TestStaleIncarnationBouncesUnderLock pins the interleaving the pointer-
// identity revalidation exists for, deterministically: work classified
// under incarnation N reaches its shard-locked section only after N was
// retired and the SAME job id came back live as N+1: it must bounce with
// N's epoch and leave N+1's slots and the id's counters untouched.
func TestStaleIncarnationBouncesUnderLock(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Shards: 2, Capacity: 1,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := sw.jobs[0].live.Load()

	// An ADD passes the gate under incarnation N and waits in the scratch.
	sc := new(batchScratch)
	var dl transport.DeliveryList
	if r := sw.classifyAdd(0, EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1}), sc); r.refused() {
		t.Fatalf("ADD refused under the live incarnation: %+v", r)
	}
	if len(sc.adds) != 1 || sc.adds[0].inc != old {
		t.Fatalf("ADD not queued under the live incarnation: %+v", sc.adds)
	}

	if err := sw.Evict(0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Admit(0, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	cur := sw.jobs[0].live.Load()
	if cur == nil || cur == old || cur.epoch != old.epoch+1 {
		t.Fatalf("want job 0 live under a new record: %+v → %+v", old, cur)
	}

	// The queued ADD now reaches its shard lock: it must bounce with a
	// notice naming N's epoch octet and leave N+1 untouched.
	badJob := sw.Rejects().BadJob
	sw.processAdds(sw.portOf(0), sc, &dl)
	sc.reset()
	if got := evictedNotice(t, dl.Deliveries(), 0); got != uint8(old.epoch) {
		t.Fatalf("notice carries epoch %d, want the stale incarnation's %d", got, old.epoch)
	}
	if st, _ := sw.JobStats(0); st != (JobStats{Phase: PhaseAdmitted, Weight: 1}) {
		t.Fatalf("stale ADD leaked into the new incarnation's counters: %+v", st)
	}
	auditSwitch(t, "after the stale ADD", sw, 0)
	if dj := sw.shards[sw.shardOf(0, 0)].sched.jobs[0]; dj != (drrJob{}) {
		t.Fatalf("stale ADD touched the scheduler ledger: %+v", dj)
	}
	if got := sw.Rejects().BadJob; got != badJob+1 {
		t.Fatalf("BadJob = %d, want %d", got, badJob+1)
	}

	// installFinals: a slot of N+1 holds a locally complete chunk; a final
	// carried by N's uplink client must be dropped, and N+1's is installed
	// once, with the overflow bit its sender ORed in.
	slot := sw.slotOf(1)
	sh := sw.shards[sw.shardOf(0, slot)]
	st := sw.slotAt(cur, slot)
	sh.mu.Lock()
	st.chunk = 1
	sh.mu.Unlock()
	three := []paidFinal{{chunk: 1, vals: core.DefaultProfile.AppendValues(nil, []float32{3}), ovf: true}} // the parent's value bytes
	if done := sw.installFinals(old, three, nil, &dl); len(done) != 0 || st.final {
		t.Fatal("stale final installed into the new incarnation's slot")
	}
	done := sw.installFinals(cur, three, nil, &dl)
	if len(done) != 1 || !st.final {
		t.Fatal("live final not installed")
	}
	if _, _, _, ovf, err := DecodeResultProfile(done[0].pkt, 1, core.DefaultProfile); err != nil || !ovf {
		t.Fatalf("final lost the leaf's overflow flag: ovf=%v err=%v", ovf, err)
	}
	if done := sw.installFinals(cur, three, nil, &dl); len(done) != 0 {
		t.Fatal("duplicate parent result re-installed a final slot")
	}
}

// TestRetiredUplinkOwesNothing: a leaf incarnation's debts to the parent go
// with it. A chunk completed under incarnation N is owed by N's uplink
// sender and resent on a timeout; once N is retired, its receiver's next
// timeout resends nothing and ends it, the re-admitted id (N+1) owes the
// parent nothing, a completion still queued under N is neither offered nor
// sent, and a parent final reaching N's sender installs nothing into N+1's
// slot. N+1's own debt is paid by exactly one install, however often the
// parent repeats the final.
func TestRetiredUplinkOwesNothing(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	spine, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := &tickParent{tick: make(chan struct{}), closed: make(chan struct{})}
	leafCfg := cfg
	leafCfg.Uplink = &UplinkConfig{Fabric: up, Leaves: 1, Control: SwitchControl{Parent: spine}, Push: &pushLog{}}
	leaf, err := NewSwitch(leafCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { leaf.Close(); up.Close() }()
	waitSent := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); up.count() != n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d uplink ADDs sent, want %d", up.count(), n)
			}
		}
	}

	old := leaf.current(0)
	handle(leaf, 0, EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1}))
	if n := leaf.UplinkPending(0); n != 1 || up.count() != 1 {
		t.Fatalf("completed chunk: %d owed, %d sent; want 1, 1", n, up.count())
	}
	up.tick <- struct{}{} // a timeout: the owed ADD is resent
	waitSent(2)
	if err := leaf.Evict(0); err != nil {
		t.Fatal(err)
	}
	up.tick <- struct{}{} // N's receiver wakes retired: no resend, and it ends
	select {
	case up.tick <- struct{}{}:
		t.Fatal("the retired incarnation's uplink receiver is still running")
	case <-time.After(50 * time.Millisecond):
	}
	waitSent(2)
	if err := leaf.Admit(0, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	cur := leaf.current(0)
	if n := leaf.UplinkPending(0); n != 0 {
		t.Fatalf("re-admitted leaf owes %d uplink ADDs", n)
	}

	sc := new(batchScratch)
	sc.ups = append(sc.ups, upReq{inc: old, chunk: 1, pkt: EncodeAddProfile(0, 1, 0, core.DefaultProfile, []float32{1})})
	leaf.submitUplinks(sc)
	sc.reset()
	if up.count() != 2 || old.up.snd.owed != 1 {
		t.Fatalf("a completion queued under the retired incarnation climbed: %d sent, %d owed by it", up.count(), old.up.snd.owed)
	}

	var dl transport.DeliveryList
	var paid []paidFinal
	final := func(chunk uint32, vals []byte, ovf bool) { paid = append(paid, paidFinal{chunk, vals, ovf}) }
	old.up.mu.Lock()
	_, err = old.up.snd.onDownlink([][]byte{result1(0, 5)}, final)
	old.up.mu.Unlock()
	installs := len(leaf.installFinals(old, paid, nil, &dl))
	if err != nil || installs != 0 {
		t.Fatalf("retired incarnation's final: %d installs (%v), want none", installs, err)
	}

	handle(leaf, 0, EncodeAddProfile(0, 0, uint8(cur.epoch), core.DefaultProfile, []float32{2}))
	if n := leaf.UplinkPending(0); n != 1 {
		t.Fatalf("live incarnation owes %d uplink ADDs, want 1", n)
	}
	paid = paid[:0]
	cur.up.mu.Lock()
	_, err = cur.up.snd.onDownlink([][]byte{result1(0, 5), result1(0, 5)}, final)
	cur.up.mu.Unlock()
	installs += len(leaf.installFinals(cur, paid, nil, &dl))
	if err != nil || installs != 1 || leaf.UplinkPending(0) != 0 {
		t.Fatalf("live final: %d installs (%v), %d still owed; want 1, 0", installs, err, leaf.UplinkPending(0))
	}
}

// result1 is a one-module f32 RESULT of job 0.
func result1(chunk uint32, v float32) []byte {
	return encodeResult(0, chunk, core.DefaultProfile, []float32{v}, false)
}

// tickParent is an uplink to a parent that never answers: it counts the
// ADDs sent, and each receive times out when the test sends on tick.
type tickParent struct {
	tick, closed chan struct{}
	mu           sync.Mutex
	sent         int
}

func (f *tickParent) SendBatch(_ int, pkts [][]byte) error {
	f.mu.Lock()
	f.sent += len(pkts)
	f.mu.Unlock()
	return nil
}

func (f *tickParent) RecvBatch(int, [][]byte, time.Duration) (int, error) {
	select {
	case <-f.tick:
		return 0, transport.ErrTimeout
	case <-f.closed:
		return 0, transport.ErrClosed
	}
}

func (f *tickParent) Close() error { close(f.closed); return nil }

func (f *tickParent) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent
}

// TestEvictedIdKeepsCountersUntilReadmit pins what JobStats documents: an
// evicted id reports PhaseVacant with its last incarnation's counters (the
// fpisa-switch lifecycle log prints them); the next Admit zeroes them and
// advances the wire epoch by one.
func TestEvictedIdKeepsCountersUntilReadmit(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Capacity: 1,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint32(0); c < 3; c++ {
		handle(sw, 0, EncodeAddProfile(0, c, 0, core.DefaultProfile, []float32{1}))
	}
	epoch := sw.JobEpoch(0)
	if err := sw.Evict(0); err != nil {
		t.Fatal(err)
	}
	st, _ := sw.JobStats(0)
	want := JobStats{Adds: 3, Completions: 3}
	if st != want {
		t.Fatalf("evicted id reports %+v, want %+v", st, want)
	}
	if err := sw.Admit(0, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	st, _ = sw.JobStats(0)
	want = JobStats{Phase: PhaseAdmitted, Weight: 1}
	if st != want {
		t.Fatalf("re-admitted id reports %+v, want %+v", st, want)
	}
	if got := sw.JobEpoch(0); got != epoch+1 {
		t.Fatalf("epoch %d → %d, want +1", epoch, got)
	}
}

// countingControl counts the admissions a leaf negotiates upward.
type countingControl struct {
	SwitchControl
	calls map[int]int
}

func (c countingControl) Admit(job int, spec JobSpec) (JobAck, error) {
	c.calls[job]++
	return c.SwitchControl.Admit(job, spec)
}

// TestStaticAndRuntimeAdmissionAreOnePath: the jobs Config admits at
// construction are built by Switch.Admit like any runtime tenant.
func TestStaticAndRuntimeAdmissionAreOnePath(t *testing.T) {
	bf16 := core.NumericProfile{Format: core.FormatBF16, Guard: 2, Rounding: core.RoundingRNE}
	query := AdmitClass{Class: ClassQuery, TopN: 4, Groups: 8}
	cfg := Config{Workers: 2, Pool: 2, Modules: 1, Shards: 2, Jobs: 2, Capacity: 4,
		Weights:  []int{3, 2},
		Profiles: []core.NumericProfile{bf16},
		Classes:  []AdmitClass{query},
		Mode:     core.ModeApprox, Arch: pisa.BaseArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if sw.JobPhaseOf(j) != PhaseAdmitted || sw.JobEpoch(j) != 0 {
			t.Fatalf("initial job %d: phase %v epoch %d", j, sw.JobPhaseOf(j), sw.JobEpoch(j))
		}
	}
	if err := sw.Admit(2, JobSpec{Weight: 3, Profile: bf16, Class: query}); err != nil {
		t.Fatal(err)
	}
	st0, _ := sw.JobStats(0)
	st2, _ := sw.JobStats(2)
	if st0 != st2 {
		t.Fatalf("runtime twin of job 0 differs:\n static %+v\nruntime %+v", st0, st2)
	}
	ack0, ack2 := sw.jobAck(0, AckAdmitted, nil), sw.jobAck(2, AckAdmitted, nil)
	ack2.Job = 0
	if ack0 != ack2 {
		t.Fatalf("acks differ:\n static %+v\nruntime %+v", ack0, ack2)
	}
	if inc0, inc2 := sw.current(0), sw.current(2); inc2 == nil || inc2 == inc0 || inc2.an == inc0.an {
		t.Fatalf("twin shares job 0's incarnation state: %p vs %p", inc2, inc0)
	}

	// A leaf's construction-time jobs negotiate upward through the same
	// path: once each.
	spineCfg := Config{Workers: 1, Pool: 2, Modules: 1, Jobs: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	spine, err := NewSwitch(spineCfg)
	if err != nil {
		t.Fatal(err)
	}
	spineFab, err := transport.NewMemory(transport.MemoryConfig{
		Workers: spineCfg.Ports(), BatchHandler: spine.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}
	ctl := countingControl{SwitchControl{Parent: spine}, map[int]int{}}
	leaf, err := NewSwitch(Config{Workers: 2, Pool: 2, Modules: 1, Jobs: 2,
		Mode: core.ModeApprox, Arch: pisa.BaseArch(),
		Uplink: &UplinkConfig{Fabric: spineFab, Leaves: 1, Control: ctl, Push: &pushLog{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	if len(ctl.calls) != 2 || ctl.calls[0] != 1 || ctl.calls[1] != 1 {
		t.Fatalf("parent admissions per job = %v, want one each for jobs 0 and 1", ctl.calls)
	}
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
