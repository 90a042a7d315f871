package pisa

import (
	"encoding/binary"
	"fmt"
)

// maxRecirculations caps packet recirculation, which on real hardware is
// bandwidth-constrained and costly (§2.3 footnote 3).
const maxRecirculations = 16

// Emission is one packet leaving the switch.
type Emission struct {
	Port   uint16
	Packet []byte
}

// Counters exposes switch observability.
type Counters struct {
	Received      uint64
	Dropped       uint64
	Emitted       uint64
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
	tstats   []tableStat
	runs     [2]uint64 // completed plan runs, ingress and egress: every always-table's hits
	mcast    map[uint16][]uint16
	counters Counters

	// Per-packet scratch, reused by every ProcessScratch call (see there
	// for the lifetime contract).
	phv      Phv        // the packet's PHV
	spare    []*Phv     // fan-out and recirculation PHVs, see scratchPhv
	writes   writeSet   // the running action's held-back PHV writes (see plan)
	deparsed []byte     // backing store of the emitted packets
	out      []Emission // the result slice
}

// tableStat holds one table's observability counters.
type tableStat struct {
	hits, misses uint64
}

// New compiles the program for the architecture and instantiates a switch.
func New(prog Program, arch Arch) (*Switch, error) {
	c, err := compile(prog, arch)
	if err != nil {
		return nil, err
	}
	return newInstance(c), nil
}

func newInstance(c *compiled) *Switch {
	return &Switch{
		c:      c,
		regs:   c.newRegisterBank(),
		tstats: make([]tableStat, len(c.declared)),
		phv:    newPhv(c.ft),
	}
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

// Arch returns the architecture the program was compiled against.
func (s *Switch) Arch() Arch { return s.c.arch }

// SetMcastGroup installs a traffic-manager multicast group.
func (s *Switch) SetMcastGroup(id uint16, ports []uint16) {
	if s.mcast == nil {
		s.mcast = make(map[uint16][]uint16)
	}
	s.mcast[id] = append([]uint16(nil), ports...)
}

// Counters returns a snapshot of the switch counters.
func (s *Switch) Counters() Counters { return s.counters }

// TableStats returns hit/miss counters for a table.
func (s *Switch) TableStats(name string) (hits, misses uint64, err error) {
	t, ok := s.c.tables[name]
	if !ok {
		return 0, 0, fmt.Errorf("pisa: unknown table %q", name)
	}
	st := s.tstats[t.idx]
	if t.decl.Kind == MatchAlways {
		st.hits += s.runs[boolBit(t.decl.Egress)]
	}
	return st.hits, st.misses, nil
}

// register resolves a register name to this switch's runtime array.
func (s *Switch) register(name string) (*registerArray, error) {
	id, ok := s.c.regIDs[name]
	if !ok {
		return nil, fmt.Errorf("pisa: unknown register %q", name)
	}
	return s.regs[id], nil
}

// RegisterSnapshot copies a register array's contents (control-plane read).
func (s *Switch) RegisterSnapshot(name string) ([]uint32, error) {
	r, err := s.register(name)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(r.vals))
	copy(out, r.vals)
	return out, nil
}

// WriteRegister sets one register element (control-plane write).
func (s *Switch) WriteRegister(name string, index int, val uint32) error {
	r, err := s.register(name)
	if err != nil {
		return err
	}
	if index < 0 || index >= len(r.vals) {
		return fmt.Errorf("pisa: register %q index %d out of range", name, index)
	}
	r.vals[index] = val & r.mask()
	return nil
}

// ResetRegisters zeroes all register arrays.
func (s *Switch) ResetRegisters() {
	for _, r := range s.regs {
		for i := range r.vals {
			r.vals[i] = 0
		}
	}
}

// ProcessScratch runs one packet through the full pipeline and returns the
// emitted packets (possibly none if dropped, several if multicast).
//
// Nothing is allocated per packet: the PHVs, the held-back write set, the
// deparse buffer and the returned slice are scratch owned by this Switch.
// The emissions — the slice and every Packet in it — are valid until the
// next call on this Switch, and pkt must not alias a previous result. That
// contract is sound because a switch is single-threaded by construction
// (one replica per shard, driven under the shard lock). Callers that keep
// a result use Process.
func (s *Switch) ProcessScratch(ingressPort uint16, pkt []byte) ([]Emission, error) {
	s.out = s.out[:0]
	s.deparsed = s.deparsed[:0]
	if err := s.process(ingressPort, pkt, 0); err != nil {
		return nil, err
	}
	return s.out, nil
}

// Process is ProcessScratch returning freshly allocated emissions the
// caller may keep.
func (s *Switch) Process(ingressPort uint16, pkt []byte) ([]Emission, error) {
	scratch, err := s.ProcessScratch(ingressPort, pkt)
	if err != nil || len(scratch) == 0 {
		return nil, err
	}
	out := make([]Emission, len(scratch))
	for i, e := range scratch {
		out[i] = Emission{Port: e.Port, Packet: append([]byte(nil), e.Packet...)}
	}
	return out, nil
}

// scratchPhv returns the i-th switch-owned PHV: 2·depth is recirculation
// depth's ingress PHV, 2·depth+1 its per-port copy for a multicast fan-out.
// Only PHV 0 exists up front; the rest appear the first time a program
// fans out or recirculates.
func (s *Switch) scratchPhv(i int) *Phv {
	if i == 0 {
		return &s.phv
	}
	for len(s.spare) < i {
		p := newPhv(s.c.ft)
		s.spare = append(s.spare, &p)
	}
	return s.spare[i-1]
}

// process runs ingress and the traffic manager for one packet at the given
// recirculation depth, appending what leaves the switch to s.out.
func (s *Switch) process(ingressPort uint16, pkt []byte, depth int) error {
	s.counters.Received++
	phv := s.scratchPhv(2 * depth)
	clear(phv.vals)
	phv.set(fidIngressPort, uint32(ingressPort))

	if err := s.parse(phv, pkt); err != nil {
		s.counters.ParserErrors++
		return err
	}

	if err := s.runPlan(phv, &s.c.ingressPlan); err != nil {
		s.counters.RuntimeErrors++
		return err
	}

	if phv.get(fidDrop) != 0 {
		s.counters.Dropped++
		return nil
	}

	// Traffic manager: replicate to the multicast group or unicast. Only a
	// real fan-out needs a PHV copy per port; a single destination runs
	// egress on the ingress PHV, which nothing reads afterwards.
	g := phv.get(fidMcastGroup)
	if g == 0 {
		return s.egress(phv, uint16(phv.get(fidEgressPort)), pkt, depth)
	}
	ports := s.mcast[uint16(g)]
	switch len(ports) {
	case 0:
		s.counters.Dropped++
		return nil
	case 1:
		return s.egress(phv, ports[0], pkt, depth)
	}
	replica := s.scratchPhv(2*depth + 1)
	for _, port := range ports {
		copy(replica.vals, phv.vals)
		if err := s.egress(replica, port, pkt, depth); err != nil {
			return err
		}
	}
	return nil
}

// egress runs the egress pipeline for one output port on phv (consumed)
// and emits, recirculates or drops the deparsed packet.
func (s *Switch) egress(phv *Phv, port uint16, pkt []byte, depth int) error {
	phv.set(fidEgressPort, uint32(port))
	if err := s.runPlan(phv, &s.c.egressPlan); err != nil {
		s.counters.RuntimeErrors++
		return err
	}
	if phv.get(fidDrop) != 0 {
		s.counters.Dropped++
		return nil
	}
	emitted := s.deparse(phv, pkt)
	if phv.get(fidRecirc) != 0 {
		if depth >= maxRecirculations {
			s.counters.RuntimeErrors++
			return fmt.Errorf("pisa: recirculation limit %d exceeded", maxRecirculations)
		}
		s.counters.Recirculated++
		return s.process(port, emitted, depth+1)
	}
	s.counters.Emitted++
	s.out = append(s.out, Emission{Port: port, Packet: emitted})
	return nil
}

// parse extracts configured byte ranges into PHV fields. Network hardware
// parses big-endian; extracts flagged HostLittleEndian are converted by the
// §4.2 parser extension (compilation guaranteed the feature is present).
func (s *Switch) parse(phv *Phv, pkt []byte) error {
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
			if e.le {
				v = uint32(binary.LittleEndian.Uint16(b))
			} else {
				v = uint32(binary.BigEndian.Uint16(b))
			}
		case 4:
			if e.le {
				v = binary.LittleEndian.Uint32(b)
			} else {
				v = binary.BigEndian.Uint32(b)
			}
		}
		phv.set(e.field, v)
	}
	for _, e := range s.c.parserBits {
		end := (e.bitOffset + e.bits + 7) / 8
		if end > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short for bit field %q", s.c.ft.name(e.field))
		}
		phv.set(e.field, extractBits(pkt, e.bitOffset, e.bits))
	}
	return nil
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

// deparse writes PHV fields back into a copy of the original packet,
// appended to the switch's deparse buffer. parse already refused any packet
// too short for an extract, so every writeback is in range.
func (s *Switch) deparse(phv *Phv, pkt []byte) []byte {
	start := len(s.deparsed)
	s.deparsed = append(s.deparsed, pkt...)
	out := s.deparsed[start:len(s.deparsed):len(s.deparsed)]
	for _, e := range s.c.parser {
		if !e.wb {
			continue
		}
		v := phv.get(e.field)
		b := out[e.offset : e.offset+e.bytes]
		switch e.bytes {
		case 1:
			b[0] = byte(v)
		case 2:
			if e.le {
				binary.LittleEndian.PutUint16(b, uint16(v))
			} else {
				binary.BigEndian.PutUint16(b, uint16(v))
			}
		case 4:
			if e.le {
				binary.LittleEndian.PutUint32(b, v)
			} else {
				binary.BigEndian.PutUint32(b, v)
			}
		}
	}
	return out
}
