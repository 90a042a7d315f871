package aggservice

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// serveUDP serves a switch on a loopback UDP socket, the way fpisa-switch
// does, and returns its address.
func serveUDP(t *testing.T, cfg Config) (*Switch, *net.UDPAddr) {
	t.Helper()
	sw, err := NewSwitch(cfg)
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
	return sw, conn.LocalAddr().(*net.UDPAddr)
}

// lossyRelay forwards one client's datagrams to the switch and the switch's
// replies back, dropping the first dropReplies replies and writing strays
// stray datagrams to the client ahead of every reply it forwards. requests
// counts the datagrams forwarded up, so a test can tell a retry from a
// single shot.
type lossyRelay struct {
	addr     string
	requests atomic.Int64
}

// strayDatagram is the i-th datagram a relay slips in ahead of a reply: a
// well-formed frame carrying another job's JOBACK, or bytes that are no
// frame at all.
func strayDatagram(i int) []byte {
	if i%2 == 1 {
		return []byte{WireVersion, MsgJobAck}
	}
	ack := EncodeJobAck(JobAck{Job: 9, Status: AckErrUnknownJob})
	return append([]byte{0, 0, 1, 0, byte(len(ack))}, ack...) // [id count(2) len(2) pkt]
}

func newLossyRelay(t *testing.T, sw *net.UDPAddr, dropReplies int64, strays int) *lossyRelay {
	t.Helper()
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.DialUDP("udp", nil, sw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close(); back.Close() })
	r := &lossyRelay{addr: front.LocalAddr().String()}
	var client atomic.Pointer[net.UDPAddr]
	go func() { // client → switch
		buf := make([]byte, 1<<16)
		for {
			n, from, err := front.ReadFromUDP(buf)
			if err != nil {
				return
			}
			client.Store(from)
			r.requests.Add(1)
			back.Write(buf[:n])
		}
	}()
	go func() { // switch → client, minus the dropped replies
		buf := make([]byte, 1<<16)
		var replies int64
		for {
			n, err := back.Read(buf)
			if err != nil {
				return
			}
			if replies++; replies <= dropReplies {
				continue
			}
			for i := 0; i < strays; i++ {
				front.WriteToUDP(strayDatagram(i), client.Load())
			}
			front.WriteToUDP(buf[:n], client.Load())
		}
	}()
	return r
}

func observerCfg() Config {
	return Config{Workers: 1, Pool: 2, Modules: 1, Jobs: 1, Capacity: 2,
		Dynamic: true, Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
}

// TestObserverOverUDP drives the whole control plane through the one
// client, over real sockets: admit → stats → drain → evict.
func TestObserverOverUDP(t *testing.T) {
	cfg := observerCfg()
	sw, addr := serveUDP(t, cfg)
	o := Observer{Addr: addr.String(), Timeout: 500 * time.Millisecond}

	spec := JobSpec{Weight: 3, Class: AdmitClass{Class: ClassQuery, TopN: 2, Groups: 8}}
	ack, err := o.Admit(1, spec)
	if err != nil || ack.Status != AckAdmitted || ack.JobSpec != spec || ack.Epoch != sw.JobEpoch(1) {
		t.Fatalf("admit: %+v %v", ack, err)
	}
	// A second admit is a definitive refusal that still echoes the live
	// incarnation — what a second tree leaf joins on.
	if again, err := o.Admit(1, spec); !errors.Is(err, ErrAlreadyAdmitted) || again.JobSpec != spec {
		t.Fatalf("double admit: %+v %v", again, err)
	}

	st, err := o.Stats(1)
	if err != nil || st.Phase != PhaseAdmitted || st.Weight != 3 || st.Class != spec.Class {
		t.Fatalf("stats: %+v %v", st, err)
	}
	if _, err := o.Stats(7); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("stats for a job outside the capacity: %v", err)
	}
	if _, err := o.Stats(MaxJobs); err == nil {
		t.Fatal("job id outside the wire's 16 bits accepted")
	}

	rows := EncodeTuples(1, 0, ack.Epoch, OpQueryAgg, []uint32{3, 3, 7}, []float32{10, 5, 2})
	if ds := handle(sw, cfg.Port(1, 0), rows); len(ds) != 1 {
		t.Fatalf("tuple batch: %v", ds)
	}
	entries, err := o.Drain(1, DrainGroups, 0)
	want := []DrainEntry{{Key: 3, Val: 15}, {Key: 7, Val: 2}}
	if err != nil || len(entries) != 2 || entries[0] != want[0] || entries[1] != want[1] {
		t.Fatalf("drain: %v %v, want %v", entries, err, want)
	}
	if entries, err := o.Drain(1, DrainGroups, 0); err != nil || len(entries) != 0 {
		t.Fatalf("drain is not read-and-reset: %v %v", entries, err)
	}
	if _, err := o.Drain(0, DrainGroups, 0); !errors.Is(err, ErrBadClass) {
		t.Fatalf("drain of a training job: %v", err)
	}

	if ack, err := o.Evict(1); err != nil || ack.Status != AckEvicting {
		t.Fatalf("evict: %+v %v", ack, err)
	}
	if _, err := o.Evict(1); !errors.Is(err, ErrNotAdmitted) {
		t.Fatalf("double evict: %v", err)
	}
}

// TestObserverRetriesLostReply loses the first reply of each exchange. The
// switch applied the first admit, so the retransmission finds the job
// already live — which the client must report as the success it was, with
// the live epoch; likewise for the evict, and a lost drain reply must be
// replayed by nonce rather than cost the harvested interval.
func TestObserverRetriesLostReply(t *testing.T) {
	cfg := observerCfg()
	sw, addr := serveUDP(t, cfg)
	via := func(drop int64) (Observer, *lossyRelay) {
		r := newLossyRelay(t, addr, drop, 0)
		return Observer{Addr: r.addr, Timeout: 50 * time.Millisecond}, r
	}

	o, relay := via(1)
	spec := JobSpec{Class: AdmitClass{Class: ClassQuery, Groups: 4}}
	ack, err := o.Admit(1, spec)
	if err != nil || ack.Status != AckAdmitted || ack.Epoch != sw.JobEpoch(1) || ack.Class != spec.Class {
		t.Fatalf("admit across a lost ack: %+v %v", ack, err)
	}
	if n := relay.requests.Load(); n != 2 {
		t.Fatalf("admit took %d sends, want 2 (one retry)", n)
	}

	handle(sw, cfg.Port(1, 0), EncodeTuples(1, 0, ack.Epoch, OpQueryAgg, []uint32{2}, []float32{6}))
	o, _ = via(1)
	if entries, err := o.Drain(1, DrainGroups, 0); err != nil || len(entries) != 1 || entries[0] != (DrainEntry{Key: 2, Val: 6}) {
		t.Fatalf("drain across a lost reply: %v %v", entries, err)
	}

	o, _ = via(1)
	if ack, err := o.Evict(1); err != nil || ack.Status != AckEvicting {
		t.Fatalf("evict across a lost ack: %+v %v", ack, err)
	}

	o, _ = via(observerAttempts)
	if _, err := o.Stats(0); err == nil {
		t.Fatal("a switch that never answers produced a stats success")
	}
}

// TestObserverRefusalIsNotRetried: a static switch's AckErrDisabled is a
// definitive answer — returned after ONE send, not retried away.
func TestObserverRefusalIsNotRetried(t *testing.T) {
	cfg := observerCfg()
	cfg.Dynamic = false
	_, addr := serveUDP(t, cfg)
	relay := newLossyRelay(t, addr, 0, 0)
	o := Observer{Addr: relay.addr, Timeout: 500 * time.Millisecond}
	if _, err := o.Admit(1, JobSpec{}); !errors.Is(err, ErrLifecycleDisabled) {
		t.Fatalf("admit on a static switch: %v", err)
	}
	if n := relay.requests.Load(); n != 1 {
		t.Fatalf("refused admit took %d sends, want 1", n)
	}
}

// TestObserverSkipsStrayDatagrams: datagrams that are not the awaited reply
// — another exchange's frame, or no frame at all — cost no attempt. With as
// many strays ahead of the reply as the exchange has attempts, the stats
// request still succeeds on its first send.
func TestObserverSkipsStrayDatagrams(t *testing.T) {
	cfg := observerCfg()
	_, addr := serveUDP(t, cfg)
	relay := newLossyRelay(t, addr, 0, observerAttempts)
	o := Observer{Addr: relay.addr, Timeout: 500 * time.Millisecond}
	if st, err := o.Stats(0); err != nil || st.Phase != PhaseAdmitted {
		t.Fatalf("stats behind %d stray datagrams: %+v %v", observerAttempts, st, err)
	}
	if n := relay.requests.Load(); n != 1 {
		t.Fatalf("stats took %d sends, want 1", n)
	}
}
