package transport

import (
	"bytes"
	"net"
	"sort"
	"testing"
	"time"
)

// collectConn binds a loopback socket and drains every datagram it receives
// into an ordered list for inspection.
type collectConn struct {
	conn *net.UDPConn
	done chan struct{}
	got  chan []byte
}

func newCollectConn(t *testing.T) *collectConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	c := &collectConn{conn: conn, done: make(chan struct{}), got: make(chan []byte, 4096)}
	go func() {
		defer close(c.done)
		buf := make([]byte, maxUDPPayload)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			c.got <- append([]byte(nil), buf[:n]...)
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-c.done
	})
	return c
}

func (c *collectConn) addr() *net.UDPAddr { return c.conn.LocalAddr().(*net.UDPAddr) }

// drain collects exactly want datagrams (failing the test on a stall).
func (c *collectConn) drain(t *testing.T, want int) [][]byte {
	t.Helper()
	var out [][]byte
	for len(out) < want {
		select {
		case d := <-c.got:
			out = append(out, d)
		case <-time.After(2 * time.Second):
			t.Fatalf("drained %d of %d datagrams before stalling", len(out), want)
		}
	}
	return out
}

// TestWriterFallbackParity asserts the satellite-3 invariant: for the same
// delivery list, the mmsg writer and the per-datagram loop put
// byte-identical datagrams on the wire.
func TestWriterFallbackParity(t *testing.T) {
	pkts := [][]byte{
		[]byte("alpha"),
		bytes.Repeat([]byte{0xA5}, 40000), // forces its own datagram
		[]byte("beta"),
		[]byte("gamma"),
		bytes.Repeat([]byte{0x5A}, 33000),
		{},
	}
	run := func(t *testing.T, useMmsg bool, id byte) [][]byte {
		t.Helper()
		sink := newCollectConn(t)
		src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		stats := &syscallCounters{}
		w := newBatchWriter(src, useMmsg, stats)
		var sc sendScratch
		failed, err := writeCoalesced(w, sink.addr(), id, pkts, &sc)
		if err != nil || failed != 0 {
			t.Fatalf("writeCoalesced: failed=%d err=%v", failed, err)
		}
		want := len(gatherCoalesced(&sendScratch{}, id, pkts))
		got := sink.drain(t, want)
		// UDP does not guarantee cross-datagram ordering on delivery;
		// compare as a multiset.
		sort.Slice(got, func(i, j int) bool { return bytes.Compare(got[i], got[j]) < 0 })
		return got
	}
	// The two senders of the fabric: the switch's downlink frames under id
	// 0, a worker's uplink under its own id. The case names are the ones
	// the suite has always reported for these two directions.
	for _, tc := range []struct {
		name string
		id   byte
	}{
		{"frameSingle=false", 0}, // downlink
		{"frameSingle=true", 7},  // uplink
	} {
		t.Run(tc.name, func(t *testing.T) {
			mmsg := run(t, true, tc.id)
			loop := run(t, false, tc.id)
			if len(mmsg) != len(loop) {
				t.Fatalf("datagram counts differ: mmsg=%d loop=%d", len(mmsg), len(loop))
			}
			for i := range mmsg {
				if !bytes.Equal(mmsg[i], loop[i]) {
					t.Fatalf("datagram %d differs:\n  mmsg %x\n  loop %x", i, mmsg[i], loop[i])
				}
			}
		})
	}
}

// TestSyscallStatsBackends asserts each backend ticks its own counters: the
// kernel-batched fabric must report Sendmmsg/Recvmmsg calls and the forced
// fallback must report only per-datagram calls.
func TestSyscallStatsBackends(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode MmsgMode
	}{
		{"mmsg", MmsgOn},
		{"fallback", MmsgOff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := NewUDP(2, perPacket(func(w int, p []byte) []Delivery {
				return []Delivery{{Worker: w, Packet: p}}
			}), WithMmsg(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			pkts := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
			if err := u.SendBatch(0, pkts); err != nil {
				t.Fatal(err)
			}
			bufs := [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64)}
			n, err := u.RecvBatch(0, bufs, 2*time.Second)
			if err != nil || n != 3 {
				t.Fatalf("RecvBatch: n=%d err=%v", n, err)
			}
			s := u.SyscallStats()
			useMmsg := tc.mode.enabled()
			if got := backendName(useMmsg); u.Backend() != got {
				t.Fatalf("Backend() = %q, want %q", u.Backend(), got)
			}
			if s.SentDatagrams == 0 || s.RecvDatagrams == 0 {
				t.Fatalf("no datagrams counted: %+v", s)
			}
			if useMmsg {
				if s.Sendmmsg == 0 || s.Recvmmsg == 0 {
					t.Fatalf("mmsg backend made no mmsg syscalls: %+v", s)
				}
				if s.SendFallback != 0 {
					t.Fatalf("mmsg backend used the send fallback: %+v", s)
				}
			} else {
				if s.Sendmmsg != 0 || s.Recvmmsg != 0 {
					t.Fatalf("fallback backend made mmsg syscalls: %+v", s)
				}
				if s.SendFallback == 0 || s.RecvFallback == 0 {
					t.Fatalf("fallback made no per-datagram syscalls: %+v", s)
				}
			}
			if s.Syscalls() == 0 || s.DatagramsPerSyscall() <= 0 {
				t.Fatalf("derived stats empty: %+v", s)
			}
		})
	}
}

// TestSendErrorsCounter asserts satellite 1: an oversized packet no longer
// vanishes — SendBatch reports the error AND the fabric counts the failed
// datagram.
func TestSendErrorsCounter(t *testing.T) {
	for _, mode := range []MmsgMode{MmsgOn, MmsgOff} {
		t.Run(mode.String(), func(t *testing.T) {
			u, err := NewUDP(1, perPacket(func(w int, p []byte) []Delivery { return nil }), WithMmsg(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			huge := make([]byte, maxUDPPayload+1)
			if err := u.SendBatch(0, [][]byte{huge}); err == nil {
				t.Fatal("oversized SendBatch returned nil error")
			}
			if got := u.SyscallStats().SendErrors; got != 1 {
				t.Fatalf("SendErrors = %d, want 1", got)
			}
			// A small packet still goes through after the failure.
			if err := u.SendBatch(0, [][]byte{[]byte("ok")}); err != nil {
				t.Fatalf("follow-up SendBatch: %v", err)
			}
		})
	}
}

// TestDeliverCountsSendErrors asserts the switch downlink path counts
// failures too: a handler replying with an oversized packet trips the
// server's SendErrors counter instead of dropping silently.
func TestDeliverCountsSendErrors(t *testing.T) {
	u, err := NewUDP(1, perPacket(func(w int, p []byte) []Delivery {
		return []Delivery{{Worker: w, Packet: make([]byte, maxUDPPayload+1)}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SendBatch(0, [][]byte{[]byte("ping")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if u.SyscallStats().SendErrors >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("SendErrors stayed at %d", u.SyscallStats().SendErrors)
}

// TestMmsgRecvBatchBurst asserts one mmsg-backed RecvBatch call can return
// packets spanning several wire datagrams.
func TestMmsgRecvBatchBurst(t *testing.T) {
	u, err := NewUDP(1, perPacket(func(w int, p []byte) []Delivery {
		// Reply with 3 packets too large to share a frame: the downlink
		// must emit them as 3 datagrams.
		return []Delivery{
			{Worker: w, Packet: append(bytes.Repeat([]byte{1}, 40000), p...)},
			{Worker: w, Packet: append(bytes.Repeat([]byte{2}, 40000), p...)},
			{Worker: w, Packet: append(bytes.Repeat([]byte{3}, 40000), p...)},
		}
	}), WithMmsg(MmsgOn))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SendBatch(0, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, 3)
	for i := range bufs {
		bufs[i] = make([]byte, maxUDPPayload)
	}
	n := 0
	deadline := time.Now().Add(2 * time.Second)
	for n < 3 && time.Now().Before(deadline) {
		m, err := u.RecvBatch(0, bufs[n:], time.Second)
		if err != nil && err != ErrTimeout {
			t.Fatal(err)
		}
		n += m
	}
	if n != 3 {
		t.Fatalf("received %d of 3 oversized replies", n)
	}
	seen := map[byte]bool{}
	for _, b := range bufs {
		if len(b) != 40001 {
			t.Fatalf("reply length %d, want 40001", len(b))
		}
		seen[b[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("replies not distinct: %v", seen)
	}
}

// TestParseMmsgMode covers the -mmsg flag surface.
func TestParseMmsgMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want MmsgMode
		ok   bool
	}{
		{"auto", MmsgAuto, true},
		{"", MmsgAuto, true},
		{"on", MmsgOn, true},
		{"off", MmsgOff, true},
		{"always", MmsgAuto, false},
	} {
		got, err := ParseMmsgMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseMmsgMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if MmsgOn.String() != "on" || MmsgOff.String() != "off" || MmsgAuto.String() != "auto" {
		t.Fatal("MmsgMode.String mismatch")
	}
}

// TestReadBufPool asserts the pooled buffers keep their full capacity
// across a get/reslice/put cycle.
func TestReadBufPool(t *testing.T) {
	bufs := getReadBufs(nil, 4)
	if len(bufs) != 4 {
		t.Fatalf("got %d buffers", len(bufs))
	}
	for i, b := range bufs {
		if cap(b) < maxUDPPayload {
			t.Fatalf("buffer %d cap %d < %d", i, cap(b), maxUDPPayload)
		}
		bufs[i] = b[:7] // simulate a short datagram reslice
	}
	putReadBufs(bufs)
	again := getReadBufs(bufs, 2)
	for i, b := range again {
		if cap(b) < maxUDPPayload {
			t.Fatalf("recycled buffer %d cap %d < %d", i, cap(b), maxUDPPayload)
		}
	}
	putReadBufs(again)
}

// TestGatherCoalesced pins the datagram layout the parity test depends on:
// greedy frame packing up to FrameCapacity, a lone packet framed like any
// other, oversized packets alone.
func TestGatherCoalesced(t *testing.T) {
	var sc sendScratch
	small := [][]byte{[]byte("a"), []byte("b")}
	dgrams := gatherCoalesced(&sc, 3, small)
	if len(dgrams) != 1 || !bytes.Equal(dgrams[0], []byte("\x03\x00\x02\x00\x01a\x00\x01b")) {
		t.Fatalf("two small packets should share one frame, got %x", dgrams)
	}
	dgrams = gatherCoalesced(&sc, 3, [][]byte{[]byte("solo")})
	if len(dgrams) != 1 || !bytes.Equal(dgrams[0], []byte("\x03\x00\x01\x00\x04solo")) {
		t.Fatalf("lone packet frame mismatch: %x", dgrams)
	}
	// FrameCapacity packets of one size fill one datagram; one more spills.
	const size = 1000
	fill := make([][]byte, FrameCapacity(size)+1)
	for i := range fill {
		fill[i] = make([]byte, size)
	}
	dgrams = gatherCoalesced(&sc, 3, fill)
	if len(dgrams) != 2 || len(dgrams[0]) > maxUDPPayload || len(dgrams[1]) != frameHdr+lenPrefix+size {
		t.Fatalf("%d packets of %d B: %d datagrams, the last %d B", len(fill), size, len(dgrams), len(dgrams[len(dgrams)-1]))
	}
	huge := make([]byte, maxUDPPayload+100)
	dgrams = gatherCoalesced(&sc, 3, [][]byte{[]byte("x"), huge, []byte("y")})
	if len(dgrams) != 3 {
		t.Fatalf("oversized middle packet should split into 3 datagrams, got %d", len(dgrams))
	}
	if len(dgrams[1]) != frameHdr+lenPrefix+len(huge) {
		t.Fatalf("oversized datagram length %d, want %d", len(dgrams[1]), frameHdr+lenPrefix+len(huge))
	}
}
