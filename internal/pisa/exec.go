package pisa

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Emission is one packet leaving the switch.
type Emission struct {
	Port   uint16
	Packet []byte
}

// Counters exposes switch observability.
type Counters struct {
	Received uint64
	Emitted  uint64
	// Recirculated is always 0: the switch has no recirculation path. It is
	// kept only because the end-to-end benchmark (bench/) still reports
	// pisa.recirculated_per_pkt from it.
	Recirculated  uint64
	ParserErrors  uint64
	RuntimeErrors uint64
}

// Switch is a compiled program instantiated with runtime register state.
// The compiled program itself is immutable and may be shared by many
// switches (Replicate); each switch owns its register bank and counters.
type Switch struct {
	c        *compiled
	regs     []*registerArray
	counters Counters

	// Per-packet scratch, reused by every ProcessScratch (see there for
	// the lifetime contract).
	phv      phv    // the packet's header vector
	deparsed []byte // backing store of the emitted packet
}

// New compiles the program for the architecture and instantiates a switch.
func New(prog Program, arch Arch) (*Switch, error) {
	c, err := compile(prog, arch)
	if err != nil {
		return nil, err
	}
	return newInstance(c), nil
}

// newInstance stamps a switch with fresh registers and its own PHV.
func newInstance(c *compiled) *Switch {
	return &Switch{c: c, regs: c.newRegisterBank(), phv: phv{vals: make([]uint32, len(c.ft.decls)), ft: c.ft}}
}

// Replicate instantiates another pipeline running the same compiled
// program with fresh (zeroed) register state and counters. It skips the
// compile entirely — the match tables, actions and dependency analysis are
// shared — so building N parallel pipeline replicas costs N register
// banks, not N compilations. Replicas process packets independently:
// concurrent Process calls on *different* replicas are safe.
func (s *Switch) Replicate() *Switch {
	return newInstance(s.c)
}

// Utilization returns the compiled resource report (paper Table 3). The
// report is a copy: the compiled program behind it is shared by every
// Replicate, so editing one caller's report changes no one else's.
func (s *Switch) Utilization() Utilization {
	u := s.c.util
	u.Stages = slices.Clone(u.Stages)
	return u
}

// Counters returns a snapshot of the switch counters.
func (s *Switch) Counters() Counters { return s.counters }

// RegisterSnapshot copies a register array's contents (control-plane read).
func (s *Switch) RegisterSnapshot(name string) ([]uint32, error) {
	id, ok := s.c.regIDs[name]
	if !ok {
		return nil, fmt.Errorf("pisa: unknown register %q", name)
	}
	return append([]uint32(nil), s.regs[id].vals...), nil
}

// ProcessScratch runs one packet through the pipeline — parse, ingress,
// egress, deparse — and returns the one packet that leaves the switch, on
// the port ingress left in _egress_port.
//
// Nothing is allocated per packet: the PHV and the deparse buffer are
// scratch owned by this Switch. The emitted Packet is valid until the next
// call on this Switch, and pkt must not alias a previous result. That
// contract is sound because a switch is single-threaded by construction
// (one replica per caller). Callers that keep a result use Process.
func (s *Switch) ProcessScratch(ingressPort uint16, pkt []byte) (Emission, error) {
	s.counters.Received++
	p := &s.phv
	clear(p.vals)
	p.set(fidIngressPort, uint32(ingressPort))
	if err := s.parse(pkt); err != nil {
		s.counters.ParserErrors++
		return Emission{}, err
	}
	err := s.runGress(s.c.ingress)
	port := uint16(p.get(fidEgressPort))
	if err == nil {
		err = s.runGress(s.c.egress)
	}
	if err != nil {
		s.counters.RuntimeErrors++
		return Emission{}, err
	}
	s.counters.Emitted++
	return Emission{Port: port, Packet: s.deparse(pkt)}, nil
}

// Process is ProcessScratch returning a freshly allocated emission the
// caller may keep, as a one-element slice.
func (s *Switch) Process(ingressPort uint16, pkt []byte) ([]Emission, error) {
	e, err := s.ProcessScratch(ingressPort, pkt)
	if err != nil {
		return nil, err
	}
	return []Emission{{Port: e.Port, Packet: append([]byte(nil), e.Packet...)}}, nil
}

// runGress runs one gress on the switch's PHV: its stages in order, each
// stage's tables in declaration order. An always-table runs its default
// action; a keyed table looks its key up and runs the action that selects
// — the matched entry's with its action data, else the default, else
// nothing. An action runs its instructions, then its stateful op.
//
// Every write goes straight into the PHV, yet every table of a stage reads
// the stage-entry PHV, as the Packet-Transactions stage atom demands:
// compile refuses every read a write of the same stage could reach — a
// table reading a field another table of its stage writes
// (checkDependencies), an instruction reading another's destination, and a
// stateful op reading what an instruction of its own action writes
// (compileAction). A register error ends the packet where it happens.
func (s *Switch) runGress(stages [][]*cTable) error {
	p := &s.phv
	for _, tables := range stages {
		for _, t := range tables {
			h := cHit{action: t.default_}
			if t.decl.Kind != MatchAlways {
				h = t.lookup(t.buildKey(p.vals))
			}
			a := h.action
			if a == nil {
				continue
			}
			for i := range a.instrs {
				ci := &a.instrs[i]
				p.set(ci.dst, ci.eval(p, h.params))
			}
			if a.stateful != nil {
				if err := a.stateful.exec(s.regs, p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// parse extracts configured byte and bit ranges into PHV fields,
// big-endian as the wire carries them. Every extract is checked against the
// packet in turn, and the first that does not fit is named in the error.
func (s *Switch) parse(pkt []byte) error {
	c, p := s.c, &s.phv
	for i := range c.parser {
		e := &c.parser[i]
		if e.offset+e.bytes > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short: need %d bytes for field %q, have %d",
				e.offset+e.bytes, c.ft.name(e.field), len(pkt))
		}
		p.vals[e.field] = e.load(pkt)
	}
	for _, e := range c.parserBits {
		if (e.bitOffset+e.bits+7)/8 > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short for bit field %q", c.ft.name(e.field))
		}
		p.vals[e.field] = extractBits(pkt, e.bitOffset, e.bits)
	}
	return nil
}

// load reads the extract from pkt, which holds it. The value fills the
// field's container exactly.
func (e *cExtract) load(pkt []byte) uint32 {
	b := pkt[e.offset : e.offset+e.bytes]
	switch e.bytes {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.BigEndian.Uint16(b))
	default:
		return binary.BigEndian.Uint32(b)
	}
}

// extractBits reads a network-bit-order bit range of 1..32 bits: bit 0 is
// the MSB of byte 0. The covering bytes (at most five) are loaded into one
// word, then shifted and masked.
func extractBits(pkt []byte, bitOff, bits int) uint32 {
	first, end := bitOff/8, (bitOff+bits+7)/8
	var w uint64
	for _, b := range pkt[first:end] {
		w = w<<8 | uint64(b)
	}
	return uint32(w>>uint(end*8-bitOff-bits)) & widthMask(bits)
}

// deparse copies the packet into the switch's deparse buffer and writes
// back, big-endian, the extracts some table writes (compiled.deparser);
// every other byte leaves as it arrived. parse already refused any packet
// too short for an extract, so every writeback is in range.
func (s *Switch) deparse(pkt []byte) []byte {
	s.deparsed = append(s.deparsed[:0], pkt...)
	out := s.deparsed
	for _, e := range s.c.deparser {
		v := s.phv.get(e.field)
		b := out[e.offset : e.offset+e.bytes]
		switch e.bytes {
		case 1:
			b[0] = byte(v)
		case 2:
			binary.BigEndian.PutUint16(b, uint16(v))
		case 4:
			binary.BigEndian.PutUint32(b, v)
		}
	}
	return out
}
