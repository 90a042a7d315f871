package pisa

import (
	"encoding/binary"
	"fmt"
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
	// the lifetime contract) and, the PHV, by every Absorb.
	phv      Phv    // the packet's PHV
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

// newInstance stamps a switch whose PHV holds the fields and, past them,
// the slots the plans read operands from, the constants filled in.
func newInstance(c *compiled) *Switch {
	vals := make([]uint32, c.constBase+len(c.consts))
	copy(vals[c.constBase:], c.consts)
	return &Switch{c: c, regs: c.newRegisterBank(), phv: Phv{vals: vals, ft: c.ft}}
}

// Replicate instantiates another pipeline running the same compiled
// program with fresh (zeroed) register state and counters. It skips the
// compile entirely — the match tables, actions, dependency analysis and
// step plans are shared — so building N parallel pipeline replicas costs N
// register banks, not N compilations. Replicas process packets
// independently: concurrent Process calls on *different* replicas are safe.
func (s *Switch) Replicate() *Switch {
	return newInstance(s.c)
}

// Utilization returns the compiled resource report (paper Table 3).
func (s *Switch) Utilization() Utilization { return s.c.util }

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
// egress on the port ingress chose, deparse — and returns the one packet
// that leaves the switch.
//
// Nothing is allocated per packet: the PHV and the deparse buffer are
// scratch owned by this Switch. The emitted Packet is valid until the next
// call on this Switch, and pkt must not alias a previous result. That
// contract is sound because a switch is single-threaded by construction
// (one replica per shard, driven under the shard lock). Callers that keep
// a result use Process.
func (s *Switch) ProcessScratch(ingressPort uint16, pkt []byte) (Emission, error) {
	p, err := s.start(ingressPort, pkt, s.c.emit)
	if err != nil {
		return Emission{}, err
	}
	phv := &s.phv
	if err := s.runPlan(phv, p.ingress); err != nil {
		s.counters.RuntimeErrors++
		return Emission{}, err
	}
	port := uint16(phv.get(fidEgressPort))
	if err := s.runPlan(phv, p.egress); err != nil {
		s.counters.RuntimeErrors++
		return Emission{}, err
	}
	s.counters.Emitted++
	return Emission{Port: port, Packet: s.deparse(phv, pkt)}, nil
}

// Absorb runs one packet whose response nobody reads: its register effects,
// runtime errors and counters are ProcessScratch's, but it runs only the
// steps that feed a stateful op and nothing leaves the switch (Emitted does
// not count it). Like ProcessScratch it allocates nothing.
func (s *Switch) Absorb(ingressPort uint16, pkt []byte) error {
	p, err := s.start(ingressPort, pkt, s.c.absorb)
	if err != nil {
		return err
	}
	if err = s.runPlan(&s.phv, p.ingress); err == nil {
		err = s.runPlan(&s.phv, p.egress)
	}
	if err != nil {
		s.counters.RuntimeErrors++
	}
	return err
}

// start counts a packet, parses it into the switch's PHV and returns the
// pass of passes it takes. It clears only the fields: every other slot a
// plan reads is a constant or written earlier in the same pass.
func (s *Switch) start(ingressPort uint16, pkt []byte, passes []pass) (*pass, error) {
	s.counters.Received++
	phv := &s.phv
	clear(phv.vals[:s.c.paramBase])
	phv.set(fidIngressPort, uint32(ingressPort))
	if err := s.parse(phv, pkt); err != nil {
		s.counters.ParserErrors++
		return nil, err
	}
	return &passes[s.c.passIndex(phv)], nil
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

// parse extracts configured byte ranges into PHV fields, big-endian as the
// wire carries them.
//
// A packet of at least parseLen bytes — every well-formed FPISA packet — is
// checked once: each byte extract is loaded as is, and each bit field
// through its one big-endian window (layoutParser). A shorter one is
// checked extract by extract, which names the first that does not fit.
func (s *Switch) parse(phv *Phv, pkt []byte) error {
	c := s.c
	if len(pkt) < c.parseLen {
		return s.parseChecked(phv, pkt)
	}
	vals := phv.vals
	for i := range c.parser {
		e := &c.parser[i]
		vals[e.field] = e.load(pkt)
	}
	for i := range c.parserBits {
		e := &c.parserBits[i]
		var v uint32
		if e.wide {
			v = uint32(binary.BigEndian.Uint64(pkt[e.win:]) >> e.shift)
		} else {
			v = binary.BigEndian.Uint32(pkt[e.win:]) >> e.shift
		}
		vals[e.field] = v & e.mask
	}
	return nil
}

// parseChecked is parse for a packet shorter than parseLen.
func (s *Switch) parseChecked(phv *Phv, pkt []byte) error {
	for i := range s.c.parser {
		e := &s.c.parser[i]
		if e.offset+e.bytes > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short: need %d bytes for field %q, have %d",
				e.offset+e.bytes, s.c.ft.name(e.field), len(pkt))
		}
		phv.vals[e.field] = e.load(pkt)
	}
	for _, e := range s.c.parserBits {
		end := (e.bitOffset + e.bits + 7) / 8
		if end > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short for bit field %q", s.c.ft.name(e.field))
		}
		phv.vals[e.field] = extractBits(pkt, e.bitOffset, e.bits)
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
func (s *Switch) deparse(phv *Phv, pkt []byte) []byte {
	s.deparsed = append(s.deparsed[:0], pkt...)
	out := s.deparsed
	for _, e := range s.c.deparser {
		v := phv.get(e.field)
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
