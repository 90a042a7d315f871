package aggservice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// senderStep is one step of a scripted addSender: offers, a received
// vector, a timeout or a reset (a Worker's next reduce), with what the step
// must return: the frames' chunk ids, the chunks handed to final, and the
// error (a substring; "" for none).
type senderStep struct {
	offer   []uint32
	down    [][]byte
	timeout bool
	reset   bool

	want   []uint32
	finals []uint32
	err    string
}

func offerStep(want ...uint32) senderStep { return senderStep{offer: want, want: want} }
func downStep(finals []uint32, msgs ...[]byte) senderStep {
	return senderStep{down: msgs, finals: finals}
}
func timeoutWant(want ...uint32) senderStep { return senderStep{timeout: true, want: want} }
func giveUp(stalls int) senderStep {
	return senderStep{timeout: true, err: fmt.Sprintf("gave up after %d stalls", stalls)}
}

// frameChunks reads the chunk ids of a vector of ADD frames.
func frameChunks(frames [][]byte) []uint32 {
	var ids []uint32
	for _, f := range frames {
		ids = append(ids, binary.BigEndian.Uint32(f[4:]))
	}
	return ids
}

// TestAddSenderSteps drives the sender with no fabric, one step at a time,
// through every event its two callers feed it. Pool 4 (an 8-entry ring),
// Retries 2, job 0 at epoch 0 with two-module f32 chunks. Each case fails
// under a named mutation of sender.go or wire.go (see CHANGES.md).
func TestAddSenderSteps(t *testing.T) {
	const pool, retries = 4, 2
	span := Config{Pool: pool}.span()
	hi := uint32(span - 1) // the chunk clock's last id
	for _, tc := range []struct {
		name  string
		steps []senderStep
		bp    uint64 // backpressure notices taken
	}{
		{"loss", []senderStep{
			offerStep(0, 1, 2, 3),
			timeoutWant(0, 1, 2, 3),
			downStep([]uint32{1}, result(1)),
			timeoutWant(0, 2, 3),
		}, 0},
		{"duplicate final", []senderStep{
			offerStep(0, 1),
			downStep([]uint32{0}, result(0), result(0)),
			downStep(nil, result(0)),
			timeoutWant(1),
		}, 0},
		{"final not owed refills nothing", []senderStep{
			offerStep(0, 1),
			timeoutWant(0, 1),
			downStep(nil, result(9), result(2)), // 9 maps onto chunk 1's entry
			timeoutWant(0, 1),
			giveUp(3),
		}, 0},
		{"final from an earlier reduce", []senderStep{
			offerStep(0, 1),
			{reset: true},
			offerStep(2),
			downStep(nil, result(0), result(1)),
			downStep([]uint32{2}, result(2)),
			timeoutWant(),
		}, 0},
		{"result run", []senderStep{
			offerStep(4, 5, 6),
			downStep([]uint32{4, 5, 6}, resultRun(3, 4)), // chunk 3 was never offered
			timeoutWant(),
		}, 0},
		{"backpressure refills", []senderStep{
			offerStep(0),
			timeoutWant(0),
			timeoutWant(0),
			downStep(nil, notice(AckBackpressure, 0), notice(AckBackpressure, 0)),
			timeoutWant(0),
			timeoutWant(0),
			giveUp(3),
		}, 2},
		{"foreign-epoch notices", []senderStep{
			offerStep(0),
			timeoutWant(0),
			timeoutWant(0),
			downStep(nil, notice(AckBackpressure, 9), notice(AckEvicted, 1), notice(AckDraining, 255)),
			giveUp(3),
		}, 0},
		{"eviction notice", []senderStep{
			offerStep(0, 1),
			{down: [][]byte{result(0), notice(AckEvicted, 0), result(1)}, finals: []uint32{0}, err: ErrJobEvicted.Error()},
		}, 0},
		{"draining notice", []senderStep{
			offerStep(0, 1),
			{down: [][]byte{notice(AckDraining, 0), result(0)}, err: ErrJobEvicted.Error()},
		}, 0},
		{"idle", []senderStep{
			timeoutWant(), timeoutWant(), timeoutWant(), timeoutWant(),
			offerStep(0),
			downStep([]uint32{0}, result(0)),
			timeoutWant(), timeoutWant(), timeoutWant(), timeoutWant(),
		}, 0},
		{"stall exhaustion", []senderStep{
			offerStep(0, 1),
			timeoutWant(0, 1),
			downStep([]uint32{1}, result(1)),
			timeoutWant(0),
			timeoutWant(0),
			giveUp(3),
			giveUp(4),
		}, 0},
		{"a slot line left behind", []senderStep{
			offerStep(0, 1, 2, 3),
			downStep([]uint32{0, 1, 3}, resultRun(0, 2), result(3)),
			offerStep(4, 5, 7),
			downStep([]uint32{4, 5, 7}, resultRun(4, 4)),
			offerStep(8, 9, 11),
			timeoutWant(2, 8, 9, 11), // the ring from the newest offer on: 8, 9, 2, 11
		}, 0},
		{"retransmit across the wrap", []senderStep{
			offerStep(8, 6, 9, 7), // entries 0, 6, 1, 7
			timeoutWant(6, 7, 8, 9),
			downStep([]uint32{6, 7, 8, 9}, resultRun(6, 4)),
			offerStep(hi-1, 0, hi, 1), // the chunk clock's wrap too
			timeoutWant(hi-1, hi, 0, 1),
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s addSender
			var bp uint64
			s.reset(0, 0, core.DefaultProfile, scriptModules, pool, span, retries)
			for i, st := range tc.steps {
				var got []byte
				var frames [][]byte
				var finals []uint32
				var err error
				switch {
				case st.reset:
					s.reset(0, 0, core.DefaultProfile, scriptModules, pool, span, retries)
				case st.offer != nil:
					for _, c := range st.offer {
						pkt := EncodeAddProfile(0, c, 0, core.DefaultProfile, chunkSum(int(c)))
						frames = s.offer(frames, c, pkt, false)
					}
				case st.down != nil:
					var n int
					n, err = s.onDownlink(st.down, func(c uint32, vals []byte, _ bool) {
						finals = append(finals, c)
						got = append(got, vals...)
					})
					bp += uint64(n)
				case st.timeout:
					frames, err = s.onTimeout(frames)
				}
				if ids := frameChunks(frames); !reflect.DeepEqual(ids, st.want) {
					t.Errorf("step %d: frames for chunks %v, want %v", i, ids, st.want)
				}
				if !reflect.DeepEqual(finals, st.finals) {
					t.Errorf("step %d: finals for chunks %v, want %v", i, finals, st.finals)
				}
				var want []byte
				for _, c := range st.finals {
					want = core.DefaultProfile.AppendValues(want, chunkSum(int(c)))
				}
				if !bytes.Equal(got, want) {
					t.Errorf("step %d: finals carried % x, want % x", i, got, want)
				}
				if (err == nil) != (st.err == "") || err != nil && !strings.Contains(err.Error(), st.err) {
					t.Errorf("step %d: error %v, want %q", i, err, st.err)
				}
			}
			if bp != tc.bp {
				t.Errorf("%d backpressure notices counted, want %d", bp, tc.bp)
			}
		})
	}
}

// byteFabric is a scriptFabric that also keeps a copy of every ADD it is
// sent, by chunk id, in send order.
type byteFabric struct {
	*scriptFabric
	sent map[uint32][][]byte
}

func (f *byteFabric) SendBatch(port int, pkts [][]byte) error {
	for _, p := range pkts {
		c := binary.BigEndian.Uint32(p[4:])
		f.sent[c] = append(f.sent[c], bytes.Clone(p))
	}
	return f.scriptFabric.SendBatch(port, pkts)
}

// TestSenderFramesSurviveReuse holds a stale reference across each reuse
// the sender's two callers make of their buffers. A leaf's HandleBatch
// goroutines and its receiver step one sender under the uplink mutex but
// send outside it, so the vector one goroutine got from offer must be its
// own: another goroutine's onTimeout or offer leaves it as it was. A Worker
// resends an owed chunk from its window entry, so the retransmit must be
// byte-identical to the first send after later chunks were encoded into the
// neighbouring entries.
func TestSenderFramesSurviveReuse(t *testing.T) {
	t.Run("leaf vectors", func(t *testing.T) {
		var mu sync.Mutex
		var s addSender
		s.reset(0, 0, core.DefaultProfile, 1, 4, Config{Pool: 4}.span(), 3)
		add := func(c uint32) []byte { return EncodeAddProfile(0, c, 0, core.DefaultProfile, []float32{float32(c)}) }
		step := func(f func()) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				mu.Lock()
				defer mu.Unlock()
				f()
			}()
			<-done
		}
		var a, b [][]byte
		step(func() { s.offer(nil, 0, add(0), false) }) // a third goroutine's earlier completion
		step(func() { a = s.offer(make([][]byte, 0, 8), 1, add(1), false) })
		snapshot := append([][]byte(nil), a...)
		step(func() {
			b, _ = s.onTimeout(make([][]byte, 0, 8))
			b = s.offer(b, 2, add(2), false)
		})
		if len(a) != 1 || &a[0][0] != &snapshot[0][0] || !bytes.Equal(a[0], add(1)) {
			t.Fatalf("offer's vector became chunks %v after another goroutine's steps", frameChunks(a))
		}
		if ids := frameChunks(b); !reflect.DeepEqual(ids, []uint32{0, 1, 2}) {
			t.Fatalf("the other goroutine got chunks %v, want [0 1 2]", ids)
		}
	})
	t.Run("worker window entries", func(t *testing.T) {
		// Pool 8: chunk 5 is lost; chunks 20 and 22 are encoded into its
		// neighbouring entries 4 and 6 before the timeout resends it.
		sf := newScriptFabric(t,
			deliver(resultRun(0, 5), result(6), result(7)),
			deliver(resultRun(8, 5), result(14), result(15)),
			timeoutStep,
		)
		f := &byteFabric{scriptFabric: sf, sent: map[uint32][][]byte{}}
		w, vec := scriptWorker(sf, 8, 40)
		w.Fabric, w.Epoch = f, 7
		if _, err := w.Reduce(vec); !errors.Is(err, errScriptEnd) {
			t.Fatalf("Reduce error %v, want the script's end", err)
		}
		sf.wantSends(2, []int{16, 17, 18, 19, 20, 22, 23})
		sf.wantSends(3, []int{5, 16, 17, 18, 19, 20, 22, 23})
		five := f.sent[5]
		if want := EncodeAddProfile(0, 5, 7, core.DefaultProfile, vec[10:12]); len(five) != 2 || !bytes.Equal(five[0], want) {
			t.Fatalf("chunk 5 sent %d times, first % x; want twice, first % x", len(five), five[0], want)
		}
		if !bytes.Equal(five[1], five[0]) {
			t.Fatalf("chunk 5 resent as % x, first sent as % x", five[1], five[0])
		}
	})
}

// unowedParent is a leaf's uplink to a parent that answers every uplink
// retransmit with a RESULT for a chunk the leaf never completed, and
// otherwise stays silent until the receive times out.
type unowedParent struct {
	replies chan []byte
	closed  chan struct{}

	mu              sync.Mutex
	sends, timeouts int
}

func (p *unowedParent) SendBatch(int, [][]byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sends++; p.sends > 1 {
		p.replies <- encodeResult(0, 7, core.DefaultProfile, []float32{1}, false)
	}
	return nil
}

func (p *unowedParent) RecvBatch(_ int, bufs [][]byte, timeout time.Duration) (int, error) {
	select {
	case r := <-p.replies:
		bufs[0] = append(bufs[0][:0], r...)
		return 1, nil
	case <-p.closed:
		return 0, transport.ErrClosed
	case <-time.After(timeout):
		p.mu.Lock()
		p.timeouts++
		p.mu.Unlock()
		return 0, transport.ErrTimeout
	}
}

func (p *unowedParent) Close() error { close(p.closed); return nil }

// TestLeafBudgetIgnoresUnowedFinals: a leaf spends its uplink retry budget
// by the Worker's rule. A RESULT for a chunk the leaf does not owe refills
// nothing, so a parent that answers every retransmit with one is still
// unreachable: the leaf evicts the job after Retries+1 timeouts, having
// resent the owed ADD Retries times.
func TestLeafBudgetIgnoresUnowedFinals(t *testing.T) {
	const retries = 3
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	spine, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parent := &unowedParent{replies: make(chan []byte, 64), closed: make(chan struct{})}
	leafCfg := cfg
	leafCfg.Uplink = &UplinkConfig{Fabric: parent, Leaves: 1, Control: SwitchControl{Parent: spine}, Push: &pushLog{},
		Timeout: 5 * time.Millisecond, Retries: retries}
	leaf, err := NewSwitch(leafCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { leaf.Close(); parent.Close() }()

	handle(leaf, 0, EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1}))
	deadline := time.Now().Add(2 * time.Second)
	for leaf.JobPhaseOf(0) != PhaseVacant {
		if time.Now().After(deadline) {
			parent.mu.Lock()
			defer parent.mu.Unlock()
			t.Fatalf("leaf still serves the job after %d timeouts and %d sends; want eviction after %d timeouts",
				parent.timeouts, parent.sends, retries+1)
		}
		time.Sleep(time.Millisecond)
	}
	// The first send is the offer; each of the Retries stall rounds resends
	// the one owed ADD, and the next timeout gives up. (Timeouts before the
	// offer are idle and count no stall.)
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if parent.sends != 1+retries || parent.timeouts < retries+1 {
		t.Fatalf("evicted after %d sends and %d timeouts, want %d sends and at least %d timeouts",
			parent.sends, parent.timeouts, 1+retries, retries+1)
	}
}

// echoFabric is an instant scripted switch for a one-worker job: every ADD
// sent is answered by the RESULT of its own values, ready at the next
// RecvBatch. It reuses its buffers, so once warm it allocates nothing.
type echoFabric struct {
	q [][]byte
	n int
}

func (f *echoFabric) SendBatch(_ int, pkts [][]byte) error {
	for _, p := range pkts {
		if f.n == len(f.q) {
			f.q = append(f.q, nil)
		}
		r := append(f.q[f.n][:0], p[:hdrBytes]...)
		r[1] = MsgResult
		r = append(append(r, p[addValOff:]...), 0)
		f.q[f.n] = r
		f.n++
	}
	return nil
}

func (f *echoFabric) RecvBatch(_ int, bufs [][]byte, _ time.Duration) (int, error) {
	if f.n == 0 {
		return 0, transport.ErrTimeout
	}
	k := min(f.n, len(bufs))
	for i := 0; i < k; i++ {
		bufs[i] = append(bufs[i][:0], f.q[i]...)
	}
	for i := k; i < f.n; i++ { // swap, so every queued buffer stays distinct
		f.q[i-k], f.q[i] = f.q[i], f.q[i-k]
	}
	f.n -= k
	return k, nil
}

func (f *echoFabric) Close() error { return nil }

// TestReduceAllocationFlatInLength: the bytes a steady-state Reduce
// allocates, less the vector it returns, do not grow with the vector's
// length — the window is 2·Pool entries whatever the vector, kept on the
// Worker across reduces. 8 and 4096 chunks on an instant scripted switch.
func TestReduceAllocationFlatInLength(t *testing.T) {
	const modules = 2
	cfg := Config{Workers: 1, Pool: 8, Modules: modules, Mode: core.ModeApprox}
	perReduce := func(chunks int) int64 {
		w := NewWorker(0, &echoFabric{}, cfg)
		vec := make([]float32, chunks*modules)
		for i := range vec {
			vec[i] = float32(i)
		}
		for i := 0; i < 3; i++ {
			if _, err := w.Reduce(vec); err != nil {
				t.Fatal(err)
			}
		}
		// The least of five trials: another goroutine of the test binary
		// can only add to a trial.
		best := int64(-1)
		var before, after runtime.MemStats
		for trial := 0; trial < 5; trial++ {
			runtime.ReadMemStats(&before)
			for i := 0; i < 10; i++ {
				if _, err := w.Reduce(vec); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if b := int64(after.TotalAlloc-before.TotalAlloc) / 10; best < 0 || b < best {
				best = b
			}
		}
		return best - int64(4*len(vec)) // the returned vector (an exact size class at both lengths)
	}
	short, long := perReduce(8), perReduce(4096)
	if long > short+512 { // the parent's window grew by 2 bytes per chunk
		t.Fatalf("a 4096-chunk reduce allocates %d bytes besides its output, an 8-chunk one %d", long, short)
	}
}

// steadyRows are the steady-state reduce shapes: one switch at base-m1 and
// ext-m3, and a 2-leaf tree of one-worker leaves at base-m1.
var steadyRows = []struct {
	name string
	cfg  Config
	tree bool
}{
	{"f32-base-m1", Config{Workers: 2, Pool: 64, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}, false},
	{"ext-m3", Config{Workers: 2, Pool: 64, Modules: 3, Shards: 2, Mode: core.ModeFull, Arch: pisa.ExtendedArch()}, false},
	{"tree-2leaf-m1", Config{Workers: 1, Pool: 64, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}, true},
}

// steadyReducer returns one reduce of a chunks-chunk vector by every worker
// at once, the workers of steadyWorkers reused.
func steadyReducer(tb testing.TB, workers []*Worker, modules, chunks int) func() {
	vec := make([]float32, chunks*modules)
	for i := range vec {
		vec[i] = float32(i%251) / 256
	}
	errs := make([]error, len(workers))
	return func() {
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = w.Reduce(vec)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestSteadyReduceAllocationFlatInLength: a steady-state reduce through a
// switch — flat, and a 2-leaf tree — makes as many allocations at 4096
// chunks as at 64: the switch builds every RESULT, run reply and uplink ADD
// in memory its shard, a delivery list or an uplink window owns, and the
// Memory rings copy into buffers they keep. The garbage collector is off
// while counting, so a sync.Pool is not emptied under the count; the
// allowance, one allocation per 32 chunks of the longer vector, absorbs
// ring slot buffers still growing and the test binary's other goroutines,
// where one allocation per completed chunk would exceed it 32 times over.
// Skipped under -race, whose instrumentation allocates.
func TestSteadyReduceAllocationFlatInLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const short, long = 64, 4096
	for _, i := range []int{0, 2} { // f32-base-m1 and tree-2leaf-m1
		row := steadyRows[i]
		t.Run(row.name, func(t *testing.T) {
			perReduce := func(chunks int) uint64 {
				workers, closeAll := steadyWorkers(t, row.cfg, row.tree)
				defer closeAll()
				reduce := steadyReducer(t, workers, row.cfg.Modules, chunks)
				for i := 0; i < 3; i++ {
					reduce()
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				best := ^uint64(0)
				var before, after runtime.MemStats
				for trial := 0; trial < 5; trial++ {
					runtime.ReadMemStats(&before)
					for i := 0; i < 4; i++ {
						reduce()
					}
					runtime.ReadMemStats(&after)
					best = min(best, (after.Mallocs-before.Mallocs)/4)
				}
				return best
			}
			s, l := perReduce(short), perReduce(long)
			t.Logf("allocations per reduce: %d at %d chunks, %d at %d", s, short, l, long)
			if l > s+long/32 {
				t.Fatalf("a %d-chunk reduce makes %d allocations, a %d-chunk one %d", long, l, short, s)
			}
		})
	}
}

// BenchmarkSteadyReduce is a training loop's steady state in package: one
// switch (or a 2-leaf tree) and its Workers built once and reused over many
// reduces on transport.Memory. One op is one reduce of a 4096-chunk vector
// by every worker at once; ns/chunk, cpu-ns/chunk (the process's user and
// system time, from getrusage) and allocs/chunk divide it by 4096.
func BenchmarkSteadyReduce(b *testing.B) {
	const chunks = 4096
	for _, row := range steadyRows {
		b.Run(row.name, func(b *testing.B) {
			workers, closeAll := steadyWorkers(b, row.cfg, row.tree)
			defer closeAll()
			reduce := steadyReducer(b, workers, row.cfg.Modules, chunks)
			reduce() // warm: window state and fabric buffers grown
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cpu0 := cpuTime(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reduce()
			}
			b.StopTimer()
			cpu := cpuTime(b) - cpu0
			runtime.ReadMemStats(&after)
			n := float64(b.N) * chunks
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/chunk")
			b.ReportMetric(float64(cpu.Nanoseconds())/n, "cpu-ns/chunk")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/chunk")
		})
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// steadyWorkers builds cfg's job 0 over Memory — flat, or as two leaves of
// cfg.Workers workers each under one spine — and returns its Workers and
// a function that closes every switch and fabric.
func steadyWorkers(b testing.TB, cfg Config, tree bool) ([]*Worker, func()) {
	b.Helper()
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	must := func(err error) {
		if err != nil {
			closeAll()
			b.Fatal(err)
		}
	}
	serve := func(cfg Config) (*Switch, *transport.Memory) {
		var sw *Switch
		fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Ports(),
			BatchHandler: func(w int, pkts [][]byte, out *transport.DeliveryList) { sw.HandleBatch(w, pkts, out) }})
		must(err)
		if cfg.Uplink != nil {
			cfg.Uplink.Push = fab
		}
		sw, err = NewSwitch(cfg)
		must(err)
		closers = append(closers, func() { fab.Close() }, sw.Close)
		return sw, fab
	}
	if !tree {
		_, fab := serve(cfg)
		var ws []*Worker
		for i := 0; i < cfg.Workers; i++ {
			ws = append(ws, NewWorker(i, fab, cfg))
		}
		return ws, closeAll
	}
	const leaves = 2
	spineCfg := cfg
	spineCfg.Workers = leaves
	spine, spineFab := serve(spineCfg)
	var ws []*Worker
	for l := 0; l < leaves; l++ {
		leafCfg := cfg
		leafCfg.Uplink = &UplinkConfig{Fabric: spineFab, LeafID: l, Leaves: leaves, Control: SwitchControl{Parent: spine}}
		_, fab := serve(leafCfg)
		for i := 0; i < cfg.Workers; i++ {
			ws = append(ws, NewWorker(i, fab, cfg))
		}
	}
	return ws, closeAll
}
