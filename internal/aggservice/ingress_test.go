package aggservice

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// rejectTotal sums every WireRejects bucket, including ones added later.
func rejectTotal(r WireRejects) (n uint64) {
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		n += v.Field(i).Uint()
	}
	return n
}

// TestIngressMatrix pins what the switch's front door does with every message
// type from every kind of sender: one well-formed datagram per type octet,
// naming training job 0, from job 0's own worker port, from the other
// tenant's port and from the observer frame — handled (and what comes back),
// or refused (which WireRejects bucket, which notice).
func TestIngressMatrix(t *testing.T) {
	cfg := Config{
		Workers: 1, Pool: 2, Modules: 1, Jobs: 2, Dynamic: true,
		Classes: []AdmitClass{{}, {Class: ClassQuery, TopN: 4, Groups: 8}},
		Mode:    core.ModeApprox, Arch: pisa.BaseArch(),
	}
	f32 := core.DefaultProfile
	result := encodeResult(0, 0, f32, []float32{1}, false)
	packets := [13][]byte{
		MsgAdd:        EncodeAddProfile(0, 0, 0, f32, []float32{1}),
		MsgResult:     result,
		2:             {WireVersion, 2, 0, 0},
		MsgStats:      EncodeStatsReq(0),
		MsgStatsReply: encodeStatsReply(0, JobStats{}),
		MsgJobAdmit:   EncodeJobAdmit(JobAdmit{Job: 0}),
		MsgJobEvict:   EncodeJobEvict(0),
		MsgJobAck:     EncodeJobAck(JobAck{Job: 0}),
		MsgResultRun:  encodeResultRun(0, 0, [][]byte{result, result}),
		MsgTuple:      EncodeTuples(0, 0, 0, OpQueryAgg, []uint32{1}, []float32{1}),
		MsgTupleAck:   encodeTupleAck(0, 0, 1),
		MsgDrain:      EncodeDrain(0, DrainGroups, 0, 1),
		MsgDrainReply: encodeDrainReply(0, DrainGroups, nil),
	}

	// outcome is one cell: the bucket that ticks ("" for a handled datagram)
	// and the one reply — its type octet and, for a MsgJobAck, its status.
	type outcome struct {
		bucket string
		reply  int
		status AckStatus
	}
	const none = -1
	malformed := outcome{"Malformed", none, 0}
	all := func(o outcome) [3]outcome { return [3]outcome{o, o, o} }
	// Columns: own worker port, the other tenant's port, the observer frame.
	want := [13][3]outcome{
		MsgAdd:        {{"", MsgResult, 0}, {"CrossJob", none, 0}, malformed},
		MsgResult:     all(malformed),
		2:             all(malformed),
		MsgStats:      all(outcome{"", MsgStatsReply, 0}),
		MsgStatsReply: all(malformed),
		MsgJobAdmit:   {malformed, malformed, {"", MsgJobAck, AckErrAlreadyAdmitted}},
		MsgJobEvict:   {malformed, malformed, {"", MsgJobAck, AckEvicting}},
		MsgJobAck:     all(malformed),
		MsgResultRun:  all(malformed),
		MsgTuple:      {{"BadClass", MsgJobAck, AckErrBadClass}, {"CrossJob", none, 0}, malformed},
		MsgTupleAck:   all(malformed),
		MsgDrain:      {malformed, malformed, {"BadClass", MsgJobAck, AckErrBadClass}},
		MsgDrainReply: all(malformed),
	}

	senders := [3]struct {
		name string
		port int
	}{{"own port", cfg.Port(0, 0)}, {"other tenant's port", cfg.Port(1, 0)}, {"observer", transport.ObserverWorker}}
	for typ, pkt := range packets {
		for col, from := range senders {
			sw, err := NewSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds := handle(sw, from.port, pkt)
			sw.Close()

			got := outcome{reply: none}
			rej := reflect.ValueOf(sw.Rejects())
			for i := 0; i < rej.NumField(); i++ {
				if n := rej.Field(i).Uint(); n > 1 || (n == 1 && got.bucket != "") {
					t.Errorf("type %d from %s: one datagram counted %+v", typ, from.name, sw.Rejects())
				} else if n == 1 {
					got.bucket = rej.Type().Field(i).Name
				}
			}
			if len(ds) > 1 || (len(ds) == 1 && (ds[0].Broadcast || ds[0].Worker != from.port)) {
				t.Errorf("type %d from %s: want at most one reply to the sender, got %+v", typ, from.name, ds)
			} else if len(ds) == 1 {
				got.reply = int(ds[0].Packet[1])
				if ack, err := DecodeJobAck(ds[0].Packet); err == nil {
					got.status = ack.Status
				}
			}
			if got != want[typ][col] {
				t.Errorf("type %d from %s: got %+v, want %+v", typ, from.name, got, want[typ][col])
			}
		}
	}

	// Outside the port range HandleBatch was built for — one past the last
	// port, one below the observer frame — every datagram is dropped before
	// the front door: no reply, and no counter ticks.
	for typ, pkt := range packets {
		for _, port := range []int{cfg.Ports(), transport.ObserverWorker - 1} {
			sw, err := NewSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds := handle(sw, port, pkt)
			sw.Close()
			adds, retrans, done := sw.Stats()
			if len(ds) != 0 || rejectTotal(sw.Rejects()) != 0 || adds+retrans+done != 0 {
				t.Errorf("type %d from port %d: replies %+v, rejects %+v, stats %d/%d/%d; want a silent drop",
					typ, port, ds, sw.Rejects(), adds, retrans, done)
			}
		}
	}
}

// TestMessageTableMatchesArchitectureDoc keeps msgTable and ARCHITECTURE.md's
// wire section describing the same protocol: every message has a "### NAME —"
// layout heading, and a fixed-size message's heading states the row's size.
func TestMessageTableMatchesArchitectureDoc(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for typ, m := range msgTable {
		if m.name == "" {
			if m.from != fromNobody {
				t.Errorf("type %d: a nameless row admits senders %v", typ, m.from)
			}
			continue
		}
		named++
		heading := regexp.MustCompile(`(?m)^### ` + regexp.QuoteMeta(m.name) + ` — (\d+ bytes|variable length)`).FindSubmatch(doc)
		switch {
		case heading == nil:
			t.Errorf("type %d: no \"### %s — …\" heading in ARCHITECTURE.md", typ, m.name)
		case m.exact && string(heading[1]) != strconv.Itoa(m.size)+" bytes":
			t.Errorf("%s: the table says %d bytes, ARCHITECTURE.md says %s", m.name, m.size, heading[1])
		case !m.exact && string(heading[1]) != "variable length":
			t.Errorf("%s: the table says at least %d bytes, ARCHITECTURE.md says %s", m.name, m.size, heading[1])
		}
	}
	if named != 12 {
		t.Errorf("msgTable names %d messages, wire.go's const block declares 12", named)
	}
}
