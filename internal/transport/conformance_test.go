package transport

// A shared conformance suite for every Fabric implementation: the
// semantics the aggregation protocols rely on — per-sender FIFO ordering
// within a batch, timeout behavior, the Close barrier, overflow-drop
// accounting — asserted identically against the ring-backed Memory
// fabric, the same fabric through the legacy single-packet shim, and the
// UDP fabric. New fabrics register a fabricCase and inherit the suite.

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// conformanceEcho answers every packet to its sender in fresh buffers —
// the minimal handler obeying the ownership rules.
func conformanceEcho(worker int, pkts [][]byte, out *DeliveryList) {
	for _, pkt := range pkts {
		out.Unicast(worker, append([]byte{0xF2}, pkt...))
	}
}

type fabricCase struct {
	name string
	// make builds a fabric over the handler; the returned fabric is
	// closed by the test.
	make func(t *testing.T, workers int, h BatchHandler) Fabric
	// lossless fabrics deliver everything below the queue bound and may
	// assert exact counts; UDP is best-effort.
	lossless bool
	// closedErr fabrics fail sends after Close with a non-nil error.
	closedErr bool
}

func fabricCases() []fabricCase {
	return []fabricCase{
		{
			name: "memory-ring",
			make: func(t *testing.T, workers int, h BatchHandler) Fabric {
				m, err := NewMemory(MemoryConfig{Workers: workers, BatchHandler: h})
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			lossless:  true,
			closedErr: true,
		},
		{
			name: "memory-shim",
			make: func(t *testing.T, workers int, h BatchHandler) Fabric {
				m, err := NewMemory(MemoryConfig{Workers: workers, BatchHandler: h})
				if err != nil {
					t.Fatal(err)
				}
				return shimFabric{m}
			},
			lossless:  true,
			closedErr: true,
		},
		{
			name: "udp-mmsg",
			make: func(t *testing.T, workers int, h BatchHandler) Fabric {
				u, err := NewUDP(workers, h, WithMmsg(MmsgOn))
				if err != nil {
					t.Fatal(err)
				}
				return u
			},
			closedErr: true,
		},
		{
			name: "udp-fallback",
			make: func(t *testing.T, workers int, h BatchHandler) Fabric {
				u, err := NewUDP(workers, h, WithMmsg(MmsgOff))
				if err != nil {
					t.Fatal(err)
				}
				return u
			},
			closedErr: true,
		},
	}
}

// shimFabric degrades a fabric to one packet per call through the
// compatibility shim — the legacy copying path under the batch interface,
// so the suite (and BenchmarkFabricThroughput) can drive both shapes
// through one harness.
type shimFabric struct{ f Fabric }

func (s shimFabric) SendBatch(worker int, pkts [][]byte) error {
	for _, pkt := range pkts {
		if err := send(s.f, worker, pkt); err != nil {
			return err
		}
	}
	return nil
}

func (s shimFabric) RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error) {
	pkt, err := recv(s.f, worker, timeout)
	if err != nil {
		return 0, err
	}
	bufs[0] = append(bufs[0][:0], pkt...)
	return 1, nil
}

func (s shimFabric) Close() error { return s.f.Close() }

func TestFabricConformance(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			t.Run("ordering", func(t *testing.T) { conformanceOrdering(t, fc) })
			t.Run("timeout", func(t *testing.T) { conformanceTimeout(t, fc) })
			t.Run("close-barrier", func(t *testing.T) { conformanceCloseBarrier(t, fc) })
			t.Run("send-close-race", func(t *testing.T) { conformanceSendCloseRace(t, fc) })
			t.Run("close-wakes-receiver", func(t *testing.T) { conformanceCloseWakesReceiver(t, fc) })
		})
	}
	t.Run("memory-overflow-drop", func(t *testing.T) { conformanceOverflowDrop(t) })
}

// conformanceOrdering: packets submitted in one SendBatch arrive in
// submission order (one handler vector, one coalesced delivery group).
func conformanceOrdering(t *testing.T, fc fabricCase) {
	f := fc.make(t, 2, conformanceEcho)
	defer f.Close()
	const n = 16
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = binary.BigEndian.AppendUint32(nil, uint32(i))
	}
	if err := f.SendBatch(1, pkts); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, n)
	got := 0
	deadline := time.Now().Add(2 * time.Second)
	for got < n && time.Now().Before(deadline) {
		k, err := f.RecvBatch(1, bufs[got:], 200*time.Millisecond)
		if err == ErrTimeout {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got += k
	}
	if got != n {
		t.Fatalf("received %d of %d", got, n)
	}
	for i := 0; i < n; i++ {
		if seq := binary.BigEndian.Uint32(bufs[i][1:]); seq != uint32(i) {
			t.Fatalf("packet %d carries sequence %d: order not preserved", i, seq)
		}
	}
}

// conformanceTimeout: an idle worker's RecvBatch returns ErrTimeout after
// (not before) the timeout elapses.
func conformanceTimeout(t *testing.T, fc fabricCase) {
	f := fc.make(t, 1, conformanceEcho)
	defer f.Close()
	bufs := make([][]byte, 1)
	start := time.Now()
	_, err := f.RecvBatch(0, bufs, 30*time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if e := time.Since(start); e < 30*time.Millisecond {
		t.Errorf("timed out after %v, before the 30ms timeout", e)
	}
}

// conformanceCloseBarrier: Close acts as a barrier — once it returns, no
// handler is running and further sends fail.
func conformanceCloseBarrier(t *testing.T, fc fabricCase) {
	var inFlight, observed atomic.Int64
	release := make(chan struct{})
	h := func(worker int, pkts [][]byte, out *DeliveryList) {
		inFlight.Add(1)
		<-release
		inFlight.Add(-1)
	}
	f := fc.make(t, 1, h)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.SendBatch(0, [][]byte{{1}})
	}()
	// Wait for the handler to be demonstrably in flight, then let it go
	// just before closing: Close must not return while it runs.
	for inFlight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	observed.Store(inFlight.Load())
	if fc.lossless && observed.Load() != 0 {
		t.Errorf("Close returned with %d handlers in flight", observed.Load())
	}
	wg.Wait()
	if fc.closedErr {
		if err := f.SendBatch(0, [][]byte{{2}}); err == nil {
			t.Error("SendBatch after Close succeeded")
		}
	}
}

// conformanceSendCloseRace: concurrent SendBatch and Close must be safe
// (run under -race in CI); sends either complete or fail with ErrClosed,
// and the fabric never deadlocks.
func conformanceSendCloseRace(t *testing.T, fc fabricCase) {
	f := fc.make(t, 4, conformanceEcho)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pkts := [][]byte{{byte(w)}, {byte(w + 1)}}
			for i := 0; i < 200; i++ {
				if err := f.SendBatch(w, pkts); err != nil {
					return // closed under us: expected
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// conformanceCloseWakesReceiver: Close ends a RecvBatch that is blocked on
// an empty queue with an error other than ErrTimeout, long before its
// timeout — a receiver goroutine (an aggregation-tree leaf's uplink client)
// must not outlive its fabric — and what was delivered before Close is
// still received first.
func conformanceCloseWakesReceiver(t *testing.T, fc fabricCase) {
	f := fc.make(t, 2, conformanceEcho)
	if err := f.SendBatch(1, [][]byte{{7}}); err != nil {
		t.Fatal(err)
	}
	if fc.lossless {
		// Worker 1's echo is ringed; it must survive the Close below.
		defer func() {
			k, err := f.RecvBatch(1, make([][]byte, 2), time.Second)
			if k != 1 || err != nil {
				t.Errorf("after Close: %d packets, err %v; want the 1 delivered before it", k, err)
			}
			if _, err := f.RecvBatch(1, make([][]byte, 2), time.Second); err != ErrClosed {
				t.Errorf("drained and closed: err = %v, want ErrClosed", err)
			}
		}()
	}
	errc := make(chan error, 1)
	go func() {
		_, err := f.RecvBatch(0, make([][]byte, 1), 30*time.Second)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || err == ErrTimeout {
			t.Errorf("blocked RecvBatch returned %v after Close, want a closed-fabric error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvBatch still blocked 5s after Close")
	}
}

// conformanceOverflowDrop: the Memory ring drops on overflow like a NIC
// ring, accounts the drops, and keeps exactly QueueDepth receivable.
func conformanceOverflowDrop(t *testing.T) {
	const depth = 8
	m, err := NewMemory(MemoryConfig{Workers: 1, BatchHandler: conformanceEcho, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pkts := make([][]byte, depth*3)
	for i := range pkts {
		pkts[i] = []byte{byte(i)}
	}
	if err := m.SendBatch(0, pkts); err != nil {
		t.Fatal(err)
	}
	sent, _, lostDown, delivered := m.Stats()
	if sent != uint64(len(pkts)) {
		t.Errorf("sent = %d", sent)
	}
	if delivered != depth {
		t.Errorf("delivered = %d, want the %d the ring holds", delivered, depth)
	}
	if lostDown != uint64(len(pkts)-depth) {
		t.Errorf("lostDown = %d, want %d overflow drops", lostDown, len(pkts)-depth)
	}
	bufs := make([][]byte, depth*3)
	n, err := m.RecvBatch(0, bufs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n != depth {
		t.Fatalf("drained %d, want %d", n, depth)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(bufs[i], []byte{0xF2, byte(i)}) {
			t.Errorf("pkt %d = %v: overflow must drop the TAIL, keeping FIFO order", i, bufs[i])
		}
	}
	if _, err := m.RecvBatch(0, bufs, 10*time.Millisecond); err != ErrTimeout {
		t.Errorf("after drain: %v, want timeout", err)
	}
}
