package core

import (
	"encoding/binary"
	"fmt"

	"fpisa/internal/pisa"
)

// PipelineAggregator drives the FPISA program on a simulated switch with
// real packets: the executable counterpart of the Accumulator software
// model. Each packet carries one value per compiled module, all addressed
// to the same slot index.
//
// An aggregator is single-threaded, like the pisa.Switch replica it owns:
// every operation rebuilds the request in the aggregator's own packet
// buffer and runs it through the switch's scratch (pisa.ProcessScratch).
// The …Into operations copy wire bytes — big-endian FP32, four per module,
// the packets' own value layout — between the caller's buffers and those
// packets and allocate nothing; Add/Read/ReadReset are the same operations
// on host float32s.
type PipelineAggregator struct {
	sw  *pisa.Switch
	lay Layout
	req []byte // the request packet, rebuilt in place by every operation
}

// NewPipelineAggregator builds, compiles and instantiates the FPISA program.
func NewPipelineAggregator(cfg Config, modules, slots int, arch pisa.Arch) (*PipelineAggregator, error) {
	prog, lay, err := BuildProgram(cfg, modules, slots, arch)
	if err != nil {
		return nil, err
	}
	sw, err := pisa.New(prog, arch)
	if err != nil {
		return nil, fmt.Errorf("core: FPISA program failed to compile: %w", err)
	}
	return &PipelineAggregator{sw: sw, lay: lay, req: make([]byte, lay.PacketBytes)}, nil
}

// Switch exposes the underlying simulated switch (registers, counters).
func (pa *PipelineAggregator) Switch() *pisa.Switch { return pa.sw }

// Utilization returns the compiled resource report (paper Table 3).
func (pa *PipelineAggregator) Utilization() pisa.Utilization { return pa.sw.Utilization() }

// putPacket builds a raw FPISA packet in pkt from checked vals, whose bytes
// are the packet's value region as is; missing modules carry +0.
func putPacket(pkt []byte, op byte, idx uint32, vals []byte) {
	clear(pkt)
	pkt[pktOffOp] = op
	binary.BigEndian.PutUint32(pkt[pktOffIdx:], idx)
	copy(pkt[pktOffValues:], vals)
}

// checkBuffers accepts at most modules values w (2 or 4) bytes wide in
// vals, and an out, if any, with room for all of them.
func checkBuffers(vals, out []byte, w, modules int) error {
	if len(vals)&(w-1) != 0 || len(vals) > w*modules || out != nil && len(out) < w*modules {
		return fmt.Errorf("core: %d value bytes in, %d out, for %d %d-byte values", len(vals), len(out), modules, w)
	}
	return nil
}

// Packet builds a raw FPISA packet from host values; exported for
// transports and daemons.
func (pa *PipelineAggregator) Packet(op byte, idx uint32, vals []float32) ([]byte, error) {
	v := DefaultProfile.AppendValues(nil, vals)
	if err := checkBuffers(v, nil, 4, pa.lay.Modules); err != nil {
		return nil, err
	}
	pkt := make([]byte, pa.lay.PacketBytes)
	putPacket(pkt, op, idx, v)
	return pkt, nil
}

// do runs one operation through the pipeline and copies the response's
// values into out, reporting whether any module's sticky overflow flag is
// set. A nil out means the register side effect is all the caller wants:
// the response is dropped.
func (pa *PipelineAggregator) do(op byte, idx int, vals, out []byte) (ovf bool, err error) {
	if idx < 0 || idx >= pa.lay.Slots {
		return false, fmt.Errorf("core: slot %d out of range %d", idx, pa.lay.Slots)
	}
	if err := checkBuffers(vals, out, 4, pa.lay.Modules); err != nil {
		return false, err
	}
	putPacket(pa.req, op, uint32(idx), vals)
	resp, err := pa.sw.ProcessScratch(1, pa.req)
	if err != nil || out == nil {
		return false, err
	}
	values := resp.Packet[pktOffValues:]
	copy(out, values[:4*pa.lay.Modules])
	for _, f := range values[4*pa.lay.Modules:] {
		ovf = ovf || f != 0
	}
	return ovf, nil
}

// AddInto accumulates vals — big-endian FP32, at most one per module — into
// the slot, writes the running sums into out in the same format and returns
// the OR of the modules' sticky overflow flags. With a nil out the
// response is dropped: no sums, ovf false. Nothing is allocated; the request
// packet and the pisa.Switch's PHV and deparse buffer are scratch, valid
// until the next call on this replica, and out is written before return.
func (pa *PipelineAggregator) AddInto(idx int, vals, out []byte) (ovf bool, err error) {
	return pa.do(PktAdd, idx, vals, out)
}

// SetInto is AddInto into a slot treated as freshly zeroed: whatever the
// slot held is overwritten in the same single pipeline pass (PktSet), and
// out and the slot's registers end up exactly as ReadResetInto followed by
// AddInto leave them. See AddInto for the storage contract.
func (pa *PipelineAggregator) SetInto(idx int, vals, out []byte) (ovf bool, err error) {
	return pa.do(PktSet, idx, vals, out)
}

// ReadInto writes the slot's renormalized sums into out without modifying
// state; see AddInto for the storage contract.
func (pa *PipelineAggregator) ReadInto(idx int, out []byte) (ovf bool, err error) {
	return pa.do(PktRead, idx, nil, out)
}

// ReadResetInto writes the sums into out and zeroes the slot and its
// counters; see AddInto for the storage contract.
func (pa *PipelineAggregator) ReadResetInto(idx int, out []byte) (ovf bool, err error) {
	return pa.do(PktReadReset, idx, nil, out)
}

// hostOp runs one …Into operation on host values: vals narrowed to wire
// bytes in, the sums widened back out as a fresh slice.
func hostOp(p NumericProfile, modules int, vals []float32, op func(vals, out []byte) (bool, error)) ([]float32, error) {
	out := make([]byte, p.ValueBytes()*modules)
	if _, err := op(p.AppendValues(nil, vals), out); err != nil {
		return nil, err
	}
	return p.values(out), nil
}

// Add accumulates one value per module into the slot and returns the
// running sums.
func (pa *PipelineAggregator) Add(idx int, vals []float32) ([]float32, error) {
	return hostOp(DefaultProfile, pa.lay.Modules, vals, func(v, out []byte) (bool, error) { return pa.AddInto(idx, v, out) })
}

// Read returns the slot's renormalized sums without modifying state.
func (pa *PipelineAggregator) Read(idx int) ([]float32, error) {
	return hostOp(DefaultProfile, pa.lay.Modules, nil, func(_, out []byte) (bool, error) { return pa.ReadInto(idx, out) })
}

// ReadReset returns the sums and zeroes the slot and its counters.
func (pa *PipelineAggregator) ReadReset(idx int) ([]float32, error) {
	return hostOp(DefaultProfile, pa.lay.Modules, nil, func(_, out []byte) (bool, error) { return pa.ReadResetInto(idx, out) })
}
