package pisa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// This file keeps the executors the package shipped before — the one that
// predates switch-owned scratch and, under it, the per-table interpreter that
// predates compile's lowering to plans — as a test oracle: a fresh PHV per
// packet, a clone of it as every stage's entry snapshot, a map as the stage's
// write set that commits when the stage is through, every table matched in
// turn, by-name builtin lookups and a freshly allocated deparse copy. It is
// deliberately the obvious transcription of the Packet-Transactions stage
// atom — every table of a stage reads the stage-entry PHV, the write set
// commits afterwards — with its own VLIW evaluator and stateful ALU (at the
// end of the file), which resolve operand kinds, widths, masks and sign
// extension per packet — and with its own parser (refParse), which checks
// every extract against the packet and reads a bit field bit by bit. It
// shares only the keyed-table lookup with the production executor. DiffRun
// holds the two to identical observable behaviour.

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

// RefProcess is ProcessScratch on the reference executor. It drives the
// receiver's own registers and counters, so run it on a replica of the
// switch under test, never on the same one.
func (s *Switch) RefProcess(ingressPort uint16, pkt []byte) (Emission, error) {
	s.counters.Received++
	phv := refNewPhv(s.c.ft)
	phv.refSet(FieldIngressPort, uint32(ingressPort))

	if err := s.refParse(phv, pkt); err != nil {
		s.counters.ParserErrors++
		return Emission{}, err
	}
	if err := s.refRunGress(phv, s.c.ingress); err != nil {
		s.counters.RuntimeErrors++
		return Emission{}, err
	}
	port := uint16(phv.refGet(FieldEgressPort))
	if err := s.refRunGress(phv, s.c.egress); err != nil {
		s.counters.RuntimeErrors++
		return Emission{}, err
	}
	s.counters.Emitted++
	return Emission{Port: port, Packet: s.refDeparse(phv, pkt)}, nil
}

func (s *Switch) refRunGress(phv *Phv, stages [][]*cTable) error {
	for _, tables := range stages {
		snapshot := refClone(phv)
		writes := make(map[fieldID]uint32)
		for _, t := range tables {
			h := cHit{action: t.default_}
			if t.decl.Kind != MatchAlways {
				h = t.lookup(t.buildKey(snapshot.vals))
			}
			a := h.action
			if a == nil {
				continue
			}
			for i := range a.instrs {
				writes[a.instrs[i].dst] = a.instrs[i].eval(snapshot, h.params)
			}
			if a.stateful != nil {
				if err := a.stateful.exec(s.regs, snapshot, writes); err != nil {
					return err
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
	for _, e := range s.c.deparser {
		v := phv.vals[e.field]
		b := out[e.offset : e.offset+e.bytes]
		switch e.bytes {
		case 1:
			b[0] = byte(v)
		case 2:
			binary.BigEndian.PutUint16(b, uint16(v))
		default:
			binary.BigEndian.PutUint32(b, v)
		}
	}
	return out
}

// refParse is the parser as the package shipped it before parse learned to
// check a packet's length once: every extract checked against the packet in
// turn, the first that does not fit named in the error. A bit field is read
// one bit at a time.
func (s *Switch) refParse(phv *Phv, pkt []byte) error {
	for _, e := range s.c.parser {
		if e.offset+e.bytes > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short: need %d bytes for field %q, have %d",
				e.offset+e.bytes, s.c.ft.name(e.field), len(pkt))
		}
		b := pkt[e.offset : e.offset+e.bytes]
		var v uint32
		switch e.bytes {
		case 1:
			v = uint32(b[0])
		case 2:
			v = uint32(binary.BigEndian.Uint16(b))
		default:
			v = binary.BigEndian.Uint32(b)
		}
		phv.vals[e.field] = v & widthMask(phv.ft.width(e.field))
	}
	for _, e := range s.c.parserBits {
		if (e.bitOffset+e.bits+7)/8 > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short for bit field %q", s.c.ft.name(e.field))
		}
		var v uint32
		for bit := e.bitOffset; bit < e.bitOffset+e.bits; bit++ {
			v = v<<1 | uint32(pkt[bit/8]>>(7-bit%8)&1)
		}
		phv.vals[e.field] = v
	}
	return nil
}

// ParseFields parses pkt with the production parser, into the switch's
// PHV, and with refParse, into a fresh one, and returns each side's field
// values and error.
func (s *Switch) ParseFields(pkt []byte) (got, want []uint32, gotErr, wantErr error) {
	clear(s.phv.vals[:s.c.paramBase])
	gotErr = s.parse(&s.phv, pkt)
	ref := refNewPhv(s.c.ft)
	wantErr = s.refParse(ref, pkt)
	return slices.Clone(s.phv.vals[:s.c.paramBase]), ref.vals, gotErr, wantErr
}

// ParseLen returns the packet length from which parse checks no extract.
func (s *Switch) ParseLen() int { return s.c.parseLen }

// DiffPacket is one input of a differential run.
type DiffPacket struct {
	Port uint16
	Data []byte
}

// DiffRun compiles prog once and drives pkts through the production
// executor on two replicas — one emitting every packet (ProcessScratch), one
// absorbing it (Absorb) — and the reference executor on a third, requiring
// identical observable behaviour: the error of every packet, the emitted
// port and bytes, the Counters after every packet (but for Emitted, which
// absorbing never counts), and every register's snapshot every 64 packets
// and at the end.
func DiffRun(t *testing.T, prog Program, arch Arch, pkts []DiffPacket) {
	t.Helper()
	sw, err := New(prog, arch)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ref, ab := sw.Replicate(), sw.Replicate()

	state := func(i int) {
		t.Helper()
		for _, r := range prog.Registers {
			got, _ := sw.RegisterSnapshot(r.Name)
			absorbed, _ := ab.RegisterSnapshot(r.Name)
			want, _ := ref.RegisterSnapshot(r.Name)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("packet %d: register %q diverged:\n got %v\nwant %v", i, r.Name, got, want)
			}
			if !reflect.DeepEqual(absorbed, want) {
				t.Fatalf("packet %d: register %q diverged when absorbing:\n got %v\nwant %v", i, r.Name, absorbed, want)
			}
		}
	}
	for i, p := range pkts {
		got, gotErr := sw.ProcessScratch(p.Port, p.Data)
		abErr := ab.Absorb(p.Port, p.Data)
		want, wantErr := ref.RefProcess(p.Port, p.Data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("packet %d (% x): error %v, want %v", i, p.Data, gotErr, wantErr)
		}
		if fmt.Sprint(abErr) != fmt.Sprint(wantErr) {
			t.Fatalf("packet %d (% x): absorbing error %v, want %v", i, p.Data, abErr, wantErr)
		}
		if got.Port != want.Port || !bytes.Equal(got.Packet, want.Packet) {
			t.Fatalf("packet %d (% x): port %d % x, want port %d % x",
				i, p.Data, got.Port, got.Packet, want.Port, want.Packet)
		}
		if sw.Counters() != ref.Counters() {
			t.Fatalf("packet %d (% x): counters %+v, want %+v", i, p.Data, sw.Counters(), ref.Counters())
		}
		if wantAb := ref.Counters(); ab.Counters() != (Counters{
			Received: wantAb.Received, ParserErrors: wantAb.ParserErrors, RuntimeErrors: wantAb.RuntimeErrors,
		}) {
			t.Fatalf("packet %d (% x): absorbing counters %+v, want %+v but Emitted 0", i, p.Data, ab.Counters(), wantAb)
		}
		if i%64 == 63 {
			state(i)
		}
	}
	state(len(pkts))
}

// The interpreter the reference executor runs on: the VLIW evaluator and the
// stateful ALU as the package shipped them before compile lowered programs
// to plans.

// getSigned returns the container value sign-extended from its declared
// width to int32.
func (p *Phv) getSigned(id fieldID) int32 {
	w := p.ft.width(id)
	v := p.vals[id]
	if w == 32 {
		return int32(v)
	}
	signBit := uint32(1) << (w - 1)
	if v&signBit != 0 {
		return int32(v | ^widthMask(w))
	}
	return int32(v)
}

func (o cOperand) value(in *Phv, params []uint32) uint32 {
	switch o.kind {
	case srcField:
		return in.get(o.field)
	case srcParam:
		return params[o.param]
	default:
		return o.imm
	}
}

func (o cOperand) signedValue(in *Phv, params []uint32) int32 {
	if o.kind == srcField {
		return in.getSigned(o.field)
	}
	return int32(o.value(in, params))
}

// eval computes the instruction result against the stage-entry PHV snapshot
// and the matched entry's action data.
func (ci *cInstr) eval(in *Phv, params []uint32) (val uint32) {
	a := ci.a.value(in, params)
	b := ci.b.value(in, params)

	switch ci.op {
	case OpMov:
		val = a
	case OpAdd:
		val = a + b
	case OpSub:
		val = a - b
	case OpOr:
		val = a | b
	case OpShl:
		val = shl32(a, b)
	case OpShrL:
		val = shrl32(a, b)
	case OpShrA:
		val = uint32(shra32(ci.a.signedValue(in, params), b))
	case OpEq:
		val = boolBit(a == b)
	case OpNe:
		val = boolBit(a != b)
	case OpLtS:
		val = boolBit(ci.a.signedValue(in, params) < ci.b.signedValue(in, params))
	case OpGeS:
		val = boolBit(ci.a.signedValue(in, params) >= ci.b.signedValue(in, params))
	case OpCsel:
		if in.get(ci.pred) != 0 {
			val = a
		} else {
			val = b
		}
	default:
		panic(fmt.Sprintf("pisa: unknown opcode %v", ci.op))
	}
	return val
}

// signedVal sign-extends a stored value to int64 per the register width.
func (r *registerArray) signedVal(v uint32) int64 {
	w := r.decl.Width
	if v&(1<<(w-1)) != 0 {
		return int64(int32(v | ^widthMask(w)))
	}
	return int64(v)
}

// exec runs the stateful op against the given register bank: reads the
// register, evaluates the predicate, applies the selected update, writes
// back, and adds its PHV outputs to the stage's write set.
func (op *cStatefulOp) exec(bank []*registerArray, in *Phv, writes map[fieldID]uint32) error {
	r := bank[op.regID]
	idx := in.get(op.index)
	old, err := r.get(idx)
	if err != nil {
		return err
	}
	var inVal uint32
	if op.hasIn {
		inVal = in.get(op.in) & r.mask()
	}

	// Predicate.
	pred := true
	switch op.cond.Kind {
	case CondAlways:
		pred = true
	case CondCmpOldIn:
		pred = op.cond.Cmp.apply(int64(inVal), int64(old)+op.cond.Off)
	case CondPhv:
		pred = op.cond.Cmp.apply(int64(in.get(op.condField)), op.cond.Off)
	}

	upd := op.false_
	if pred {
		upd = op.true_
	}

	overflow := false
	newVal := old
	switch upd {
	case UKeepOld:
	case USetIn:
		newVal = inVal
	case UZero:
		newVal = 0
	case UAddIn:
		newVal, overflow = op.addWrap(r, old, inVal)
	case UMaxIn:
		if op.cmpGreater(r, inVal, old) {
			newVal = inVal
		}
	case URsawAddIn:
		var dist uint32
		if op.hasShift {
			dist = in.get(op.shift)
		}
		shifted := op.shiftRight(r, old, dist)
		newVal, overflow = op.addWrap(r, shifted, inVal)
	}
	newVal &= r.mask()
	r.vals[idx] = newVal

	switch op.output {
	case OutOld:
		writes[op.outField] = old
	case OutNew:
		writes[op.outField] = newVal
	}
	if op.hasOvField {
		writes[op.ovField] = boolBit(overflow)
	}
	return nil
}

// addWrap adds within the register width and reports signed overflow when
// the op is signed (unsigned ops never report overflow: wrapping is the
// defined behaviour for counters).
func (op *cStatefulOp) addWrap(r *registerArray, a, b uint32) (uint32, bool) {
	m := r.mask()
	sum := (a + b) & m
	if !op.signed {
		return sum, false
	}
	w := r.decl.Width
	signBit := uint32(1) << (w - 1)
	// Signed overflow: operands share a sign that differs from the result's.
	if (a^b)&signBit == 0 && (a^sum)&signBit != 0 {
		return sum, true
	}
	return sum, false
}

func (op *cStatefulOp) cmpGreater(r *registerArray, a, b uint32) bool {
	if op.signed {
		return r.signedVal(a) > r.signedVal(b)
	}
	return a > b
}

func (op *cStatefulOp) shiftRight(r *registerArray, v, dist uint32) uint32 {
	w := uint32(r.decl.Width)
	if op.signed {
		if dist >= w {
			dist = w - 1
		}
		s := r.signedVal(v) >> dist
		return uint32(s) & r.mask()
	}
	if dist >= w {
		return 0
	}
	return v >> dist
}

func (r *registerArray) mask() uint32 { return widthMask(r.decl.Width) }

func (r *registerArray) get(i uint32) (uint32, error) {
	if int(i) >= len(r.vals) {
		return 0, fmt.Errorf("pisa: register %q index %d out of range %d", r.decl.Name, i, len(r.vals))
	}
	return r.vals[i], nil
}
