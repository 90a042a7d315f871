package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// perPacket lifts a one-packet-in/deliveries-out function to the vectored
// BatchHandler contract, invoking it once per packet.
func perPacket(h func(worker int, pkt []byte) []Delivery) BatchHandler {
	return func(worker int, pkts [][]byte, out *DeliveryList) {
		for _, pkt := range pkts {
			for _, d := range h(worker, pkt) {
				if d.Broadcast {
					out.Broadcast(d.Packet)
				} else {
					out.Unicast(d.Worker, d.Packet)
				}
			}
		}
	}
}

// send submits one packet as a one-element vector.
func send(f Fabric, worker int, pkt []byte) error {
	return f.SendBatch(worker, [][]byte{pkt})
}

// recv blocks for one delivery and returns it in a fresh buffer.
func recv(f Fabric, worker int, timeout time.Duration) ([]byte, error) {
	var one [1][]byte
	if _, err := f.RecvBatch(worker, one[:], timeout); err != nil {
		return nil, err
	}
	return one[0], nil
}

// echoHandler answers each packet back to its sender, prefixed with the
// worker index. Replies are fresh buffers: deliveries must not alias the
// input vector (see the package ownership rules).
func echoHandler(worker int, pkt []byte) []Delivery {
	out := append([]byte{byte(worker)}, pkt...)
	return []Delivery{{Worker: worker, Packet: out}}
}

func TestMemoryEcho(t *testing.T) {
	m, err := NewMemory(MemoryConfig{Workers: 3, BatchHandler: perPacket(echoHandler)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := send(m, 1, []byte{9, 8}); err != nil {
		t.Fatal(err)
	}
	pkt, err := recv(m, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt, []byte{1, 9, 8}) {
		t.Errorf("pkt = %v", pkt)
	}
	if _, err := recv(m, 2, 10*time.Millisecond); err != ErrTimeout {
		t.Errorf("expected timeout, got %v", err)
	}
}

func TestMemoryBatchRoundTrip(t *testing.T) {
	m, err := NewMemory(MemoryConfig{Workers: 2, BatchHandler: func(w int, pkts [][]byte, out *DeliveryList) {
		for _, pkt := range pkts {
			out.Unicast(w, append([]byte{byte(w)}, pkt...))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	send := [][]byte{{10}, {11}, {12}}
	if err := m.SendBatch(0, send); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, 8)
	n, err := m.RecvBatch(0, bufs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("RecvBatch drained %d of 3", n)
	}
	for i, want := range []byte{10, 11, 12} {
		if !bytes.Equal(bufs[i], []byte{0, want}) {
			t.Errorf("pkt %d = %v", i, bufs[i])
		}
	}
}

// TestMemoryRecvBatchReusesBuffers pins the zero-copy contract: a second
// RecvBatch writes into the same backing arrays the first call grew.
func TestMemoryRecvBatchReusesBuffers(t *testing.T) {
	m, _ := NewMemory(MemoryConfig{Workers: 1, BatchHandler: perPacket(echoHandler)})
	defer m.Close()
	bufs := make([][]byte, 1)
	send(m, 0, []byte{1, 2, 3})
	if _, err := m.RecvBatch(0, bufs, time.Second); err != nil {
		t.Fatal(err)
	}
	first := &bufs[0][0]
	send(m, 0, []byte{4, 5, 6})
	if _, err := m.RecvBatch(0, bufs, time.Second); err != nil {
		t.Fatal(err)
	}
	if &bufs[0][0] != first {
		t.Error("RecvBatch reallocated a buffer it could have reused")
	}
	if !bytes.Equal(bufs[0], []byte{0, 4, 5, 6}) {
		t.Errorf("second recv = %v", bufs[0])
	}
}

// TestMemoryRingCopiesAtPush: deliveries are borrowed. The rings copy each
// at push, so a handler that rewrites its reply memory once SendBatch has
// returned (here: the list's arena, through slices it kept) changes nothing
// RecvBatch returns, on any of a broadcast's destinations.
func TestMemoryRingCopiesAtPush(t *testing.T) {
	var kept [][]byte
	m, err := NewMemory(MemoryConfig{Workers: 2, BatchHandler: func(w int, pkts [][]byte, out *DeliveryList) {
		for _, pkt := range pkts {
			p := out.Alloc(len(pkt))
			copy(p, pkt)
			kept = append(kept, p)
			out.Broadcast(p)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sent := [][]byte{{1, 2, 3}, {4, 5}}
	if err := m.SendBatch(0, sent); err != nil {
		t.Fatal(err)
	}
	for _, p := range kept {
		for i := range p {
			p[i] = 0xEE
		}
	}
	for w := 0; w < 2; w++ {
		bufs := make([][]byte, 4)
		n, err := m.RecvBatch(w, bufs, time.Second)
		if err != nil || n != len(sent) {
			t.Fatalf("worker %d: %d packets (%v), want %d", w, n, err, len(sent))
		}
		for i, want := range sent {
			if !bytes.Equal(bufs[i], want) {
				t.Errorf("worker %d packet %d = % x, want % x", w, i, bufs[i], want)
			}
		}
	}
}

// TestMemoryRingDropsAtQueueDepth: a ring grows its slot array as its
// backlog does, and still drops exactly the deliveries past QueueDepth — here
// a depth no doubling lands on, reached across a wrapped head — delivering
// the rest in order.
func TestMemoryRingDropsAtQueueDepth(t *testing.T) {
	const depth = 100
	m, err := NewMemory(MemoryConfig{Workers: 1, BatchHandler: perPacket(echoHandler), QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	push := func(from, to int) {
		t.Helper()
		ds := make([]Delivery, 0, to-from)
		for i := from; i < to; i++ {
			ds = append(ds, Delivery{Worker: 0, Packet: []byte{byte(i), byte(i >> 8)}})
		}
		if err := m.Push(ds); err != nil {
			t.Fatal(err)
		}
	}
	bufs := make([][]byte, 2*depth)
	push(0, 5)
	if n, err := m.RecvBatch(0, bufs[:3], time.Second); err != nil || n != 3 {
		t.Fatalf("popped %d (%v), want 3", n, err)
	}
	push(5, 255) // 2 queued + 250 pushed: 98 fit
	if _, _, lost, delivered := m.Stats(); lost != 250-(depth-2) || delivered != 5+depth-2 {
		t.Fatalf("lost %d, delivered %d; want %d and %d", lost, delivered, 250-(depth-2), 5+depth-2)
	}
	n, err := m.RecvBatch(0, bufs, time.Second)
	if err != nil || n != depth {
		t.Fatalf("drained %d (%v), want %d", n, err, depth)
	}
	for i := 0; i < n; i++ {
		if want := []byte{byte(3 + i), byte((3 + i) >> 8)}; !bytes.Equal(bufs[i], want) {
			t.Fatalf("delivery %d = % x, want % x", i, bufs[i], want)
		}
	}
	push(255, 255+depth+1) // the grown ring takes depth again, no more
	if n, _ := m.RecvBatch(0, bufs, time.Second); n != depth {
		t.Fatalf("refilled ring held %d, want %d", n, depth)
	}
}

func TestMemoryBroadcast(t *testing.T) {
	m, _ := NewMemory(MemoryConfig{Workers: 3, BatchHandler: perPacket(func(w int, pkt []byte) []Delivery {
		return []Delivery{{Broadcast: true, Packet: append([]byte(nil), pkt...)}}
	})})
	defer m.Close()
	send(m, 0, []byte{42})
	for w := 0; w < 3; w++ {
		pkt, err := recv(m, w, time.Second)
		if err != nil || pkt[0] != 42 {
			t.Fatalf("worker %d: %v %v", w, pkt, err)
		}
	}
}

func TestMemoryLossInjection(t *testing.T) {
	m, _ := NewMemory(MemoryConfig{Workers: 1, BatchHandler: perPacket(echoHandler), UplinkLoss: 0.5, Seed: 1})
	defer m.Close()
	for i := 0; i < 200; i++ {
		send(m, 0, []byte{1})
	}
	sent, lostUp, _, delivered := m.Stats()
	if sent != 200 {
		t.Errorf("sent = %d", sent)
	}
	if lostUp < 50 || lostUp > 150 {
		t.Errorf("lostUp = %d, expected ~100", lostUp)
	}
	if delivered+lostUp != 200 {
		t.Errorf("delivered %d + lost %d != 200", delivered, lostUp)
	}
}

func TestMemoryDeterministicLoss(t *testing.T) {
	run := func() uint64 {
		m, _ := NewMemory(MemoryConfig{Workers: 1, BatchHandler: perPacket(echoHandler), UplinkLoss: 0.3, Seed: 42})
		defer m.Close()
		for i := 0; i < 100; i++ {
			send(m, 0, []byte{byte(i)})
		}
		_, lost, _, _ := m.Stats()
		return lost
	}
	if run() != run() {
		t.Error("loss pattern not reproducible with the same seed")
	}
}

func TestMemoryValidation(t *testing.T) {
	if _, err := NewMemory(MemoryConfig{Workers: 0, BatchHandler: perPacket(echoHandler)}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := NewMemory(MemoryConfig{Workers: 1}); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := NewMemory(MemoryConfig{Workers: 1, BatchHandler: perPacket(echoHandler), UplinkLoss: 1.0}); err == nil {
		t.Error("loss=1 accepted")
	}
	if _, err := NewMemory(MemoryConfig{Workers: 1, BatchHandler: perPacket(echoHandler), QueueDepth: -1}); err == nil {
		t.Error("negative queue depth accepted")
	}
	m, _ := NewMemory(MemoryConfig{Workers: 1, BatchHandler: perPacket(echoHandler)})
	defer m.Close()
	if err := send(m, 5, nil); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if _, err := recv(m, -1, time.Millisecond); err == nil {
		t.Error("negative worker accepted")
	}
	if _, err := m.RecvBatch(0, nil, time.Millisecond); err == nil {
		t.Error("empty buffer vector accepted")
	}
}

func TestMemoryConcurrentSenders(t *testing.T) {
	var mu sync.Mutex
	count := 0
	m, _ := NewMemory(MemoryConfig{Workers: 4, BatchHandler: func(w int, pkts [][]byte, out *DeliveryList) {
		mu.Lock()
		count += len(pkts)
		mu.Unlock()
	}})
	defer m.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m.SendBatch(w, [][]byte{{byte(i)}, {byte(i + 1)}, {byte(i + 2)}, {byte(i + 3)}})
			}
		}(w)
	}
	wg.Wait()
	if count != 400 {
		t.Errorf("handler saw %d packets, want 400", count)
	}
}

// TestMemoryPortLaneSerializesHandler: two goroutines drive one port, as a
// tree leaf's HandleBatch goroutines and its uplink receiver drive the
// uplink port. The port's lane runs one handler call at a time — the
// handler keeps unguarded state in its list's Lane field, which the race
// detector would flag on an overlap — and every packet is delivered once.
func TestMemoryPortLaneSerializesHandler(t *testing.T) {
	const senders, perSender = 2, 500
	var busy atomic.Int32
	m, err := NewMemory(MemoryConfig{Workers: 1, QueueDepth: senders * perSender,
		BatchHandler: func(w int, pkts [][]byte, out *DeliveryList) {
			if busy.Add(1) != 1 {
				t.Error("two handler calls overlap on one port")
			}
			calls, _ := out.Lane.(*int)
			if calls == nil {
				calls = new(int)
				out.Lane = calls
			}
			*calls++
			for _, pkt := range pkts {
				reply := out.Alloc(len(pkt))
				copy(reply, pkt)
				out.Unicast(w, reply)
			}
			busy.Add(-1)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := send(m, 0, []byte{byte(g), byte(i >> 8), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	seen := map[string]int{}
	bufs := make([][]byte, 64)
	for len(seen) < senders*perSender {
		n, err := m.RecvBatch(0, bufs, time.Second)
		if err != nil {
			t.Fatalf("after %d distinct packets: %v", len(seen), err)
		}
		for _, b := range bufs[:n] {
			if seen[string(b)]++; seen[string(b)] > 1 {
				t.Fatalf("packet %x delivered twice", b)
			}
		}
	}
	if sent, _, _, delivered := m.Stats(); sent != senders*perSender || delivered != sent {
		t.Fatalf("stats: sent %d delivered %d, want %d each", sent, delivered, senders*perSender)
	}
}

// TestMemoryCloseIsABarrier: Close waits for a handler running inside
// SendBatch, and once it has returned no send or push gets through.
func TestMemoryCloseIsABarrier(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	m, err := NewMemory(MemoryConfig{Workers: 2, BatchHandler: func(w int, pkts [][]byte, out *DeliveryList) {
		close(entered)
		<-release
	}})
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- send(m, 0, []byte{1}) }()
	<-entered
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if err := <-sent; err != nil {
		t.Fatalf("the send Close waited for: %v", err)
	}
	for w := 0; w < 2; w++ {
		if err := send(m, w, []byte{2}); err != ErrClosed {
			t.Fatalf("SendBatch on port %d after Close: %v, want ErrClosed", w, err)
		}
	}
	if err := m.Push([]Delivery{{Worker: 0, Packet: []byte{3}}}); err != ErrClosed {
		t.Fatalf("Push after Close: %v, want ErrClosed", err)
	}
}

func TestBatchFrameRoundTrip(t *testing.T) {
	pkts := [][]byte{{1, 2, 3}, {}, {0xF2, 9}, bytes.Repeat([]byte{7}, 300)}
	frame := appendFrame(nil, 17, pkts)
	id, got, err := decodeFrame(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 17 {
		t.Errorf("id = %d", id)
	}
	if len(got) != len(pkts) {
		t.Fatalf("%d packets of %d", len(got), len(pkts))
	}
	for i := range pkts {
		if !bytes.Equal(got[i], pkts[i]) {
			t.Errorf("pkt %d = %v, want %v", i, got[i], pkts[i])
		}
	}
	// Corruptions must error, not panic; a short datagram is a truncation.
	for _, bad := range [][]byte{frame[:2], frame[:len(frame)-1], append(append([]byte(nil), frame...), 9)} {
		_, _, err := decodeFrame(bad, nil)
		if err == nil {
			t.Errorf("corrupt frame %d bytes accepted", len(bad))
		}
		if short := len(bad) < len(frame); errors.Is(err, ErrTruncated) != short {
			t.Errorf("%d of %d bytes: %v", len(bad), len(frame), err)
		}
	}
}

// TestFrameGolden pins the bytes of every datagram on the wire, as the
// fabric's own halves write them: a worker's uplink frame with one and with
// two packets, the switch's downlink frame, and an observer's request and
// the switch's reply to it. Every one is [id(1) count(2) {len(2) pkt}·count].
func TestFrameGolden(t *testing.T) {
	mustHex := func(s string) []byte {
		b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	req := []byte{0xF2, 0x03, 0x00, 0x01}
	// Uplink and observer request: what DialUDP and DialObserver send.
	sink := newCollectConn(t)
	up, err := DialUDP(sink.addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	obs, err := DialObserver(sink.addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	for _, tc := range []struct {
		name string
		f    Fabric
		port int
		pkts [][]byte
		want string
	}{
		{"uplink, 1 packet", up, 2, [][]byte{req}, "02 0001 0004 f2030001"},
		{"uplink, 2 packets", up, 2, [][]byte{{0xA1}, {0xB2, 0xC3}}, "02 0002 0001 a1 0002 b2c3"},
		{"observer request", obs, 0, [][]byte{req}, "ff 0001 0004 f2030001"},
	} {
		if err := tc.f.SendBatch(tc.port, tc.pkts); err != nil {
			t.Fatal(err)
		}
		if got := sink.drain(t, 1)[0]; !bytes.Equal(got, mustHex(tc.want)) {
			t.Errorf("%s: % x, want %s", tc.name, got, tc.want)
		}
	}

	// Downlink and observer reply: what the serve loop writes back.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv, err := NewUDPServer(conn, 3)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = srv.Serve(func(w int, pkts [][]byte, out *DeliveryList) {
			out.Unicast(w, []byte{0xF2, 0x04, byte(len(pkts))})
		})
	}()
	client, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	buf := make([]byte, maxUDPPayload)
	for _, tc := range []struct{ name, send, want string }{
		{"downlink", "02 0002 0001 a1 0002 b2c3", "00 0001 0003 f20402"},
		{"observer reply", "ff 0001 0004 f2030001", "00 0001 0003 f20401"},
	} {
		if _, err := client.Write(mustHex(tc.send)); err != nil {
			t.Fatal(err)
		}
		if err := client.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(buf[:n], mustHex(tc.want)) {
			t.Errorf("%s: % x, want %s", tc.name, buf[:n], tc.want)
		}
	}
}

func TestUDPFabric(t *testing.T) {
	u, err := NewUDP(2, perPacket(func(w int, pkt []byte) []Delivery {
		if len(pkt) > 0 && pkt[0] == 99 {
			return []Delivery{{Broadcast: true, Packet: []byte{byte(w), 1}}}
		}
		return []Delivery{{Worker: w, Packet: append([]byte{byte(w)}, pkt...)}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	// Register both workers (the switch learns addresses from traffic).
	if err := send(u, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	pkt, err := recv(u, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt, []byte{0, 7}) {
		t.Errorf("echo = %v", pkt)
	}
	if err := send(u, 1, []byte{8}); err != nil {
		t.Fatal(err)
	}
	if _, err := recv(u, 1, time.Second); err != nil {
		t.Fatal(err)
	}

	// Broadcast reaches both.
	if err := send(u, 0, []byte{99}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		pkt, err := recv(u, w, time.Second)
		if err != nil {
			t.Fatalf("worker %d missed broadcast: %v", w, err)
		}
		if !bytes.Equal(pkt, []byte{0, 1}) {
			t.Errorf("broadcast pkt = %v", pkt)
		}
	}

	if _, err := recv(u, 0, 20*time.Millisecond); err != ErrTimeout {
		t.Errorf("expected timeout, got %v", err)
	}
}

// TestUDPBatchCoalescing pins the wire shape: a send vector crosses as one
// frame, is handled as one vector, and the coalesced
// replies drain in one RecvBatch.
func TestUDPBatchCoalescing(t *testing.T) {
	var mu sync.Mutex
	var vecSizes []int
	u, err := NewUDP(1, func(w int, pkts [][]byte, out *DeliveryList) {
		mu.Lock()
		vecSizes = append(vecSizes, len(pkts))
		mu.Unlock()
		for _, pkt := range pkts {
			out.Unicast(w, append([]byte{0xF2}, pkt...)) // fresh buffers
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	send := [][]byte{{1}, {2}, {3}, {4}, {5}}
	if err := u.SendBatch(0, send); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, 8)
	got := 0
	for got < 5 {
		n, err := u.RecvBatch(0, bufs[got:], time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if want := byte(got + i + 1); !bytes.Equal(bufs[got+i], []byte{0xF2, want}) {
				t.Errorf("pkt %d = %v", got+i, bufs[got+i])
			}
		}
		got += n
	}
	mu.Lock()
	defer mu.Unlock()
	if len(vecSizes) != 1 || vecSizes[0] != 5 {
		t.Errorf("handler invocations %v, want one vector of 5", vecSizes)
	}
}

// TestUDPRecvBatchCarryover: a frame larger than the caller's buffer
// vector must not drop packets — the overflow is served by the next call.
func TestUDPRecvBatchCarryover(t *testing.T) {
	u, err := NewUDP(1, func(w int, pkts [][]byte, out *DeliveryList) {
		for _, pkt := range pkts {
			out.Unicast(w, append([]byte{0xF2}, pkt...))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SendBatch(0, [][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	seen := map[byte]bool{}
	two := make([][]byte, 2)
	for len(seen) < 3 {
		n, err := u.RecvBatch(0, two, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			seen[two[i][1]] = true
		}
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Errorf("carryover lost packets: %v", seen)
	}
}
