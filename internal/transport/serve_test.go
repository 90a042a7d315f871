package transport

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// handlerCall is one recorded handler invocation: the worker and its packet
// vector, copied out (the vector aliases read buffers).
type handlerCall struct {
	worker int
	pkts   []string
}

func (c handlerCall) String() string { return fmt.Sprintf("(w%d %q)", c.worker, c.pkts) }

// callLog records handler invocations; safe for concurrent use.
type callLog struct {
	mu    sync.Mutex
	calls []handlerCall
	pkts  int
}

func (l *callLog) record(worker int, pkts [][]byte) {
	c := handlerCall{worker: worker}
	for _, p := range pkts {
		c.pkts = append(c.pkts, string(p))
	}
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.pkts += len(pkts)
	l.mu.Unlock()
}

func (l *callLog) snapshot() ([]handlerCall, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]handlerCall(nil), l.calls...), l.pkts
}

// frame is the datagram carrying pkts from id (a worker or observerID).
func frame(id byte, pkts ...string) []byte {
	vec := make([][]byte, len(pkts))
	for i, p := range pkts {
		vec[i] = []byte(p)
	}
	return appendFrame(nil, id, vec)
}

func udpAddr(port int) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
}

// TestServeBurstGroupsPerWorker: one drained burst reaches the handler as one
// vector per worker, in arrival order, the workers in the order of their
// first packet; an observer frame runs the groups gathered before it first;
// malformed frames (a pre-1.2 unframed [id payload] datagram among them),
// unknown workers and source-less datagrams are dropped;
// each worker's return path is the source of its latest datagram.
func TestServeBurstGroupsPerWorker(t *testing.T) {
	a0, a1, a0b, obs := udpAddr(1000), udpAddr(1001), udpAddr(1002), udpAddr(2000)
	truncated := frame(1, "x", "y")
	for _, tc := range []struct {
		name  string
		bufs  [][]byte
		srcs  []*net.UDPAddr
		calls []handlerCall
		addrs []*net.UDPAddr
	}{
		{
			name: "observer barrier",
			bufs: [][]byte{
				frame(0, "a", "b", "c"), frame(1, "d"), frame(0, "e"),
				frame(observerID, "stats"), frame(0, "f", "g"),
			},
			srcs: []*net.UDPAddr{a0, a1, a0b, obs, a0},
			calls: []handlerCall{
				{0, []string{"a", "b", "c", "e"}}, {1, []string{"d"}},
				{ObserverWorker, []string{"stats"}},
				{0, []string{"f", "g"}},
			},
			addrs: []*net.UDPAddr{a0, a1, nil},
		},
		{
			name: "malformed frames dropped",
			bufs: [][]byte{
				frame(2, "h"), {}, []byte("\x02raw"), frame(3, "unknown worker"), frame(7, "unknown"),
				truncated[:len(truncated)-1], frame(1), frame(1, "no source"),
				frame(2, "i", "j"), frame(1, ""),
			},
			srcs: []*net.UDPAddr{a0, a0, a0, a0, a0, a0, a0, nil, a0b, a1},
			calls: []handlerCall{
				{2, []string{"h", "i", "j"}}, {1, []string{""}},
			},
			addrs: []*net.UDPAddr{nil, a1, a0b},
		},
		{
			name:  "observer only",
			bufs:  [][]byte{frame(observerID, "")},
			srcs:  []*net.UDPAddr{obs},
			calls: []handlerCall{{ObserverWorker, []string{""}}},
			addrs: []*net.UDPAddr{nil, nil, nil},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log callLog
			handler := func(w int, pkts [][]byte, out *DeliveryList) {
				log.record(w, pkts)
				out.Unicast(w, []byte("reply"))
			}
			addrs := make([]*net.UDPAddr, 3)
			var replies []*net.UDPAddr
			b := newBurst(3, handler,
				func(ws []int, src []*net.UDPAddr) {
					for _, w := range ws {
						addrs[w] = src[w]
					}
				},
				func(src *net.UDPAddr, ds []Delivery) {
					for range ds {
						replies = append(replies, src)
					}
				})
			b.dispatch(tc.bufs, tc.srcs)
			calls, _ := log.snapshot()
			if !reflect.DeepEqual(calls, tc.calls) {
				t.Errorf("handler calls %v, want %v", calls, tc.calls)
			}
			if !reflect.DeepEqual(addrs, tc.addrs) {
				t.Errorf("learned return paths %v, want %v", addrs, tc.addrs)
			}
			workerCalls := 0
			for _, c := range tc.calls {
				if c.worker == ObserverWorker {
					if len(replies) != 1 || replies[0] != obs {
						t.Errorf("observer replies went to %v, want [%v]", replies, obs)
					}
				} else {
					workerCalls++
				}
			}
			if b.dl.Len() != workerCalls {
				t.Errorf("%d worker deliveries gathered, want %d", b.dl.Len(), workerCalls)
			}
		})
	}
}

// TestServeOneHandlerCallPerWorker drives the serve loop over a real socket:
// datagrams from two workers queued before the reader starts are one burst
// for the kernel-batched backend, so each worker's packets reach the handler
// in ONE call. The per-datagram backend reads one datagram per receive, so
// there every datagram is its own burst. Either way each worker's packets
// arrive in the order they were sent.
func TestServeOneHandlerCallPerWorker(t *testing.T) {
	for _, mode := range []MmsgMode{MmsgOn, MmsgOff} {
		t.Run(mode.String(), func(t *testing.T) {
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewUDPServer(conn, 2, WithMmsg(mode))
			if err != nil {
				t.Fatal(err)
			}
			var socks [2]*net.UDPConn
			for i := range socks {
				if socks[i], err = net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr)); err != nil {
					t.Fatal(err)
				}
				defer socks[i].Close()
			}
			dgrams := []struct {
				from int
				b    []byte
			}{
				{0, frame(0, "a", "b")}, {1, frame(1, "c")}, {0, frame(0, "d")},
				{1, frame(1, "e", "f", "g")}, {0, frame(0, "h")},
			}
			for _, d := range dgrams {
				if _, err := socks[d.from].Write(d.b); err != nil {
					t.Fatal(err)
				}
			}
			const total = 8

			var log callLog
			done := make(chan struct{})
			go func() {
				defer close(done)
				// One reader, so the burst boundaries are the backend's own.
				serveReader(s, func(w int, pkts [][]byte, _ *DeliveryList) { log.record(w, pkts) })
			}()
			deadline := time.Now().Add(5 * time.Second)
			for _, n := log.snapshot(); n < total && time.Now().Before(deadline); _, n = log.snapshot() {
				time.Sleep(time.Millisecond)
			}
			conn.Close()
			<-done

			calls, n := log.snapshot()
			if n != total {
				t.Fatalf("handler saw %d packets, want %d: %v", n, total, calls)
			}
			got := map[int][]string{}
			for _, c := range calls {
				got[c.worker] = append(got[c.worker], c.pkts...)
			}
			want := map[int][]string{0: {"a", "b", "d", "h"}, 1: {"c", "e", "f", "g"}}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("per-worker packets %v, want %v", got, want)
			}
			wantCalls := 2
			if !s.useMmsg {
				wantCalls = len(dgrams)
			}
			if len(calls) != wantCalls {
				t.Errorf("%s backend: %d handler calls %v, want %d", s.Backend(), len(calls), calls, wantCalls)
			}
		})
	}
}

// referenceDispatch is the datagram-by-datagram serve loop the grouped
// dispatch replaces: each datagram read by refFrame, one handler call per
// datagram, the return path learned per datagram, an observer's replies
// written at once.
func referenceDispatch(workers int, bufs [][]byte, srcs []*net.UDPAddr, handler BatchHandler,
	addrs []*net.UDPAddr, reply func(*net.UDPAddr, []Delivery), dl *DeliveryList) {
	for i, buf := range bufs {
		id, strs, _, ok := refFrame(buf)
		if !ok || srcs[i] == nil || len(strs) == 0 {
			continue
		}
		pkts := make([][]byte, len(strs))
		for j, p := range strs {
			pkts[j] = []byte(p)
		}
		switch {
		case id == observerID:
			var odl DeliveryList
			handler(ObserverWorker, pkts, &odl)
			reply(srcs[i], odl.Deliveries())
		case int(id) < workers:
			addrs[id] = srcs[i]
			handler(int(id), pkts, dl)
		}
	}
}

// burstRun is what one dispatch of a burst did, in comparable form.
type burstRun struct {
	segments []map[int][]string // per-worker packets between observer frames
	calls    []int              // handler calls per segment (grouped: ≤ one per worker)
	observer []string           // observer packets and their replies' destinations, in order
	routed   map[int][]string   // per destination: deliveries, tagged with their source worker
	addrs    []*net.UDPAddr
}

const fuzzWorkers = 3

// runBurst dispatches bufs through the grouped dispatch or the reference
// with a handler whose replies depend on each packet's first byte: a
// broadcast, a unicast, or a unicast to a worker the fabric does not have.
func runBurst(bufs [][]byte, srcs []*net.UDPAddr, grouped bool) burstRun {
	r := burstRun{segments: []map[int][]string{{}}, calls: []int{0}, routed: map[int][]string{}}
	handler := func(w int, pkts [][]byte, out *DeliveryList) {
		if w == ObserverWorker {
			for _, p := range pkts {
				r.observer = append(r.observer, string(p))
				out.Unicast(0, append([]byte("obs:"), p...))
			}
			r.segments = append(r.segments, map[int][]string{})
			r.calls = append(r.calls, 0)
			return
		}
		seg := r.segments[len(r.segments)-1]
		r.calls[len(r.calls)-1]++
		for _, p := range pkts {
			seg[w] = append(seg[w], string(p))
			reply := append([]byte{byte(w)}, p...)
			switch {
			case len(p) == 0:
			case p[0]%5 == 4:
				out.Broadcast(reply)
			default:
				out.Unicast(int(p[0]%5), reply)
			}
		}
	}
	r.addrs = make([]*net.UDPAddr, fuzzWorkers)
	reply := func(src *net.UDPAddr, ds []Delivery) {
		for _, d := range ds {
			r.observer = append(r.observer, fmt.Sprintf("%v<-%q", src, d.Packet))
		}
	}
	var ds []Delivery
	if grouped {
		b := newBurst(fuzzWorkers, handler, func(ws []int, src []*net.UDPAddr) {
			for _, w := range ws {
				r.addrs[w] = src[w]
			}
		}, reply)
		b.dispatch(bufs, srcs)
		ds = b.dl.Deliveries()
	} else {
		var dl DeliveryList
		referenceDispatch(fuzzWorkers, bufs, srcs, handler, r.addrs, reply, &dl)
		ds = dl.Deliveries()
	}
	var g destGroups
	g.init(fuzzWorkers)
	for _, d := range ds {
		g.deliver(d)
	}
	for _, w := range g.touched {
		for _, p := range g.perDst[w] {
			r.routed[w] = append(r.routed[w], fmt.Sprintf("%d:%q", p[0], p[1:]))
		}
	}
	return r
}

// bySource splits a destination's tagged deliveries per source worker,
// keeping their order: the grouped dispatch reorders deliveries ACROSS
// source workers (a worker's group runs as one), never within one.
func bySource(routed map[int][]string) map[int]map[byte][]string {
	out := map[int]map[byte][]string{}
	for dst, ps := range routed {
		out[dst] = map[byte][]string{}
		for _, p := range ps {
			out[dst][p[0]] = append(out[dst][p[0]], p)
		}
	}
	return out
}

// FuzzServeBurst compares the grouped burst dispatch with the
// datagram-by-datagram reference: between observer frames every worker's
// packets arrive in the same order, in at most one handler call per worker;
// observer frames run, and are answered, in the same order; every
// destination gets the same replies from each source worker in the same
// order; and the learned return paths are the same.
func FuzzServeBurst(f *testing.F) {
	enc := func(dgrams ...[]byte) []byte {
		var raw []byte
		for i, d := range dgrams {
			raw = append(raw, byte(i%4), byte(len(d)))
			raw = append(raw, d...)
		}
		return raw
	}
	f.Add(enc(frame(0, "a", "b", "c"), frame(1, "d"), frame(0, "e"),
		frame(observerID, "s", "t"), frame(0, "f", "g")))
	f.Add(enc(frame(2, "\x04x"), frame(1, "\x01", "\x03"), frame(observerID, ""), frame(2, "\x02")))
	f.Add(enc(frame(1), frame(9, "x"), frame(5, "y"), []byte{0, 0, 3}))
	f.Add([]byte{3, 5, 0, 0, 1, 0, 0, 0, 6, 1, 0, 1, 0, 1, 'q'})

	f.Fuzz(func(t *testing.T, raw []byte) {
		// raw is a burst: {src(1) len(1) datagram}*; src 3 means none.
		srcAddrs := []*net.UDPAddr{udpAddr(1), udpAddr(2), udpAddr(3), nil}
		var bufs [][]byte
		var srcs []*net.UDPAddr
		for len(raw) >= 2 {
			src, n := srcAddrs[raw[0]%4], min(int(raw[1]), len(raw)-2)
			bufs = append(bufs, raw[2:2+n])
			srcs = append(srcs, src)
			raw = raw[2+n:]
		}
		// Each run gets its own copy: nothing may depend on the other
		// having read (or aliased) the buffers.
		copyBufs := func() [][]byte {
			c := make([][]byte, len(bufs))
			for i, b := range bufs {
				c[i] = bytes.Clone(b)
			}
			return c
		}
		got := runBurst(copyBufs(), srcs, true)
		want := runBurst(copyBufs(), srcs, false)
		if !reflect.DeepEqual(got.segments, want.segments) {
			t.Fatalf("per-worker packets between observer frames:\n got %v\nwant %v", got.segments, want.segments)
		}
		for i, seg := range got.segments {
			if got.calls[i] != len(seg) {
				t.Fatalf("segment %d: %d handler calls for %d workers", i, got.calls[i], len(seg))
			}
		}
		if !reflect.DeepEqual(got.observer, want.observer) {
			t.Fatalf("observer frames:\n got %v\nwant %v", got.observer, want.observer)
		}
		if g, w := bySource(got.routed), bySource(want.routed); !reflect.DeepEqual(g, w) {
			t.Fatalf("routed replies:\n got %v\nwant %v", g, w)
		}
		if !reflect.DeepEqual(got.addrs, want.addrs) {
			t.Fatalf("learned return paths %v, want %v", got.addrs, want.addrs)
		}
	})
}
