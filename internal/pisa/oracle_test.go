package pisa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// This file keeps the executor the package shipped before Switch owned its
// scratch, as a test oracle: a fresh PHV per packet, a clone of it as every
// stage's entry snapshot, a map as the stage's write set, a clone per
// egress port, by-name builtin lookups and a freshly allocated deparse copy
// per emission. It is deliberately the obvious transcription of the
// Packet-Transactions stage atom — every table of a stage reads the
// stage-entry PHV, the write set commits afterwards — and shares only the
// parser, the table matcher, the VLIW evaluator and the stateful ALU with
// the production executor. DiffRun holds the two to identical observable
// behaviour.

func refNewPhv(ft *fieldTable) *Phv {
	return &Phv{vals: make([]uint32, len(ft.decls)), ft: ft}
}

func refClone(p *Phv) *Phv {
	q := refNewPhv(p.ft)
	copy(q.vals, p.vals)
	return q
}

func (p *Phv) refGet(name string) uint32 {
	id, err := p.ft.lookup(name)
	if err != nil {
		panic(err)
	}
	return p.vals[id]
}

func (p *Phv) refSet(name string, v uint32) {
	id, err := p.ft.lookup(name)
	if err != nil {
		panic(err)
	}
	p.vals[id] = v & widthMask(p.ft.width(id))
}

// RefProcess is Process on the reference executor. It drives the receiver's
// own registers, counters and table statistics, so run it on a replica of
// the switch under test, never on the same one.
func (s *Switch) RefProcess(ingressPort uint16, pkt []byte) ([]Emission, error) {
	return s.refProcess(ingressPort, pkt, 0)
}

func (s *Switch) refProcess(ingressPort uint16, pkt []byte, depth int) ([]Emission, error) {
	s.counters.Received++
	phv := refNewPhv(s.c.ft)
	phv.refSet(FieldIngressPort, uint32(ingressPort))

	if err := s.parse(phv, pkt); err != nil {
		s.counters.ParserErrors++
		return nil, err
	}
	if err := s.refRunGress(phv, s.c.ingress, "ingress"); err != nil {
		s.counters.RuntimeErrors++
		return nil, err
	}
	if phv.refGet(FieldDrop) != 0 {
		s.counters.Dropped++
		return nil, nil
	}

	var ports []uint16
	if g := phv.refGet(FieldMcastGroup); g != 0 {
		ports = s.mcast[uint16(g)]
		if len(ports) == 0 {
			s.counters.Dropped++
			return nil, nil
		}
	} else {
		ports = []uint16{uint16(phv.refGet(FieldEgressPort))}
	}

	var out []Emission
	for _, port := range ports {
		copyPhv := refClone(phv)
		copyPhv.refSet(FieldEgressPort, uint32(port))
		if err := s.refRunGress(copyPhv, s.c.egress, "egress"); err != nil {
			s.counters.RuntimeErrors++
			return nil, err
		}
		if copyPhv.refGet(FieldDrop) != 0 {
			s.counters.Dropped++
			continue
		}
		emitted := s.refDeparse(copyPhv, pkt)
		if copyPhv.refGet(FieldRecirc) != 0 {
			if depth >= maxRecirculations {
				s.counters.RuntimeErrors++
				return nil, fmt.Errorf("pisa: recirculation limit %d exceeded", maxRecirculations)
			}
			s.counters.Recirculated++
			more, err := s.refProcess(port, emitted, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, more...)
			continue
		}
		s.counters.Emitted++
		out = append(out, Emission{Port: port, Packet: emitted})
	}
	return out, nil
}

func (s *Switch) refRunGress(phv *Phv, stages [][]*cTable, gress string) error {
	for si, tables := range stages {
		snapshot := refClone(phv)
		writes := make(map[fieldID]uint32)
		for _, t := range tables {
			h, hit := t.match(snapshot)
			if hit {
				s.tstats[t.idx].hits++
			} else {
				s.tstats[t.idx].misses++
			}
			a := h.action
			if a == nil {
				continue
			}
			if s.Trace != nil {
				s.Trace(gress, si, t.decl.Name, a.name)
			}
			for i := range a.instrs {
				if val, ok := a.instrs[i].eval(snapshot, h.params); ok {
					writes[a.instrs[i].dst] = val
				}
			}
			if a.stateful != nil {
				var outs writeSet
				if err := a.stateful.exec(s.regs, snapshot, &outs); err != nil {
					return err
				}
				for _, w := range outs {
					writes[w.id] = w.val
				}
			}
		}
		for f, v := range writes {
			phv.vals[f] = v & widthMask(phv.ft.width(f))
		}
	}
	return nil
}

func (s *Switch) refDeparse(phv *Phv, pkt []byte) []byte {
	out := append([]byte(nil), pkt...)
	for _, e := range s.c.parser {
		if !e.wb {
			continue
		}
		v := phv.vals[e.field]
		b := out[e.offset : e.offset+e.bytes]
		switch {
		case e.bytes == 1:
			b[0] = byte(v)
		case e.bytes == 2 && e.le:
			binary.LittleEndian.PutUint16(b, uint16(v))
		case e.bytes == 2:
			binary.BigEndian.PutUint16(b, uint16(v))
		case e.le:
			binary.LittleEndian.PutUint32(b, v)
		default:
			binary.BigEndian.PutUint32(b, v)
		}
	}
	return out
}

// DiffPacket is one input of a differential run.
type DiffPacket struct {
	Port uint16
	Data []byte
}

// DiffRun compiles prog once and drives pkts through the production
// executor (ProcessScratch) on one replica and the reference executor on
// another, requiring identical observable behaviour: the error and the
// emitted ports and bytes of every packet, the Trace call sequence and the
// Counters after every packet, and every register's snapshot and every
// table's hit/miss counters every 64 packets and at the end. setup (may be
// nil) configures each replica, e.g. its multicast groups.
func DiffRun(t *testing.T, prog Program, arch Arch, setup func(*Switch), pkts []DiffPacket) {
	t.Helper()
	sw, err := New(prog, arch)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ref := sw.Replicate()
	var gotTrace, wantTrace []string
	tracer := func(into *[]string) func(string, int, string, string) {
		return func(gress string, stage int, table, action string) {
			*into = append(*into, fmt.Sprintf("%s/%d/%s/%s", gress, stage, table, action))
		}
	}
	sw.Trace, ref.Trace = tracer(&gotTrace), tracer(&wantTrace)
	if setup != nil {
		setup(sw)
		setup(ref)
	}

	state := func(i int) {
		t.Helper()
		for _, r := range prog.Registers {
			got, _ := sw.RegisterSnapshot(r.Name)
			want, _ := ref.RegisterSnapshot(r.Name)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("packet %d: register %q diverged:\n got %v\nwant %v", i, r.Name, got, want)
			}
		}
		for _, tb := range prog.Tables {
			gh, gm, _ := sw.TableStats(tb.Name)
			wh, wm, _ := ref.TableStats(tb.Name)
			if gh != wh || gm != wm {
				t.Fatalf("packet %d: table %q stats %d/%d, want %d/%d", i, tb.Name, gh, gm, wh, wm)
			}
		}
	}
	for i, p := range pkts {
		gotTrace, wantTrace = gotTrace[:0], wantTrace[:0]
		got, gotErr := sw.ProcessScratch(p.Port, p.Data)
		want, wantErr := ref.RefProcess(p.Port, p.Data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("packet %d (% x): error %v, want %v", i, p.Data, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("packet %d (% x): %d emissions, want %d", i, p.Data, len(got), len(want))
		}
		for k := range got {
			if got[k].Port != want[k].Port || !bytes.Equal(got[k].Packet, want[k].Packet) {
				t.Fatalf("packet %d (% x) emission %d: port %d % x, want port %d % x",
					i, p.Data, k, got[k].Port, got[k].Packet, want[k].Port, want[k].Packet)
			}
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("packet %d (% x): trace %v, want %v", i, p.Data, gotTrace, wantTrace)
		}
		if sw.Counters() != ref.Counters() {
			t.Fatalf("packet %d (% x): counters %+v, want %+v", i, p.Data, sw.Counters(), ref.Counters())
		}
		if i%64 == 63 {
			state(i)
		}
	}
	state(len(pkts))
}
