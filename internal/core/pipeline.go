package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"fpisa/internal/pisa"
)

// PipelineAggregator drives the FPISA program on a simulated switch with
// real packets: the executable counterpart of the Accumulator software
// model. Each packet carries one value per compiled module, all addressed
// to the same slot index.
//
// An aggregator is single-threaded, like the pisa.Switch replica it owns:
// every operation rebuilds the request in the aggregator's own packet
// buffer and runs it through the switch's scratch (pisa.ProcessScratch, or
// pisa.Absorb when the caller discards the response). The …Into operations
// decode the response into storage the caller supplies and allocate
// nothing in steady state; Add/Read/ReadReset are the same operations
// returning a fresh Result.
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

// Layout returns the compiled layout.
func (pa *PipelineAggregator) Layout() Layout { return pa.lay }

// Replicate builds another pipeline running the same compiled FPISA
// program with fresh register state — the way a multi-pipe switch ASIC
// stamps identical pipelines out of one P4 compile. It costs one register
// bank instead of a full recompile, making per-shard replicas cheap for
// sharded aggregation services. The replica's state is independent:
// concurrent operations on different replicas are safe.
func (pa *PipelineAggregator) Replicate() *PipelineAggregator {
	return &PipelineAggregator{sw: pa.sw.Replicate(), lay: pa.lay, req: make([]byte, pa.lay.PacketBytes)}
}

// Switch exposes the underlying simulated switch (registers, counters).
func (pa *PipelineAggregator) Switch() *pisa.Switch { return pa.sw }

// Utilization returns the compiled resource report (paper Table 3).
func (pa *PipelineAggregator) Utilization() pisa.Utilization { return pa.sw.Utilization() }

// Result is one pipeline operation's response.
type Result struct {
	// Values holds the per-module renormalized FP32 results: for Add the
	// running sums after the addition, for Read/ReadReset the stored sums.
	Values []float32
	// Overflow holds the per-module sticky overflow flags (§3.3).
	Overflow []bool
	// Count is the slot's add counter (after the operation).
	Count uint32
}

// resize sets Values and Overflow to one entry per module, reusing their
// capacity.
func (r *Result) resize(modules int) {
	if cap(r.Values) < modules || cap(r.Overflow) < modules {
		r.Values = make([]float32, modules)
		r.Overflow = make([]bool, modules)
	}
	r.Values, r.Overflow = r.Values[:modules], r.Overflow[:modules]
}

// putPacket builds a raw FPISA packet in pkt (PacketBytes long).
func (pa *PipelineAggregator) putPacket(pkt []byte, op byte, idx uint32, vals []float32) error {
	if len(vals) > pa.lay.Modules {
		return fmt.Errorf("core: %d values exceed %d modules", len(vals), pa.lay.Modules)
	}
	clear(pkt)
	pkt[pktOffOp] = op
	binary.BigEndian.PutUint32(pkt[pktOffIdx:], idx)
	for k, v := range vals {
		binary.BigEndian.PutUint32(pkt[pktOffValues+pktPerModule*k:], math.Float32bits(v))
	}
	return nil
}

// Packet builds a raw FPISA packet; exported for transports and daemons.
func (pa *PipelineAggregator) Packet(op byte, idx uint32, vals []float32) ([]byte, error) {
	pkt := make([]byte, pa.lay.PacketBytes)
	if err := pa.putPacket(pkt, op, idx, vals); err != nil {
		return nil, err
	}
	return pkt, nil
}

// parseInto decodes a response packet into res, reusing the
// capacity of res.Values and res.Overflow.
func (pa *PipelineAggregator) parseInto(pkt []byte, res *Result) error {
	if len(pkt) < pa.lay.PacketBytes {
		return fmt.Errorf("core: short response: %d < %d", len(pkt), pa.lay.PacketBytes)
	}
	res.resize(pa.lay.Modules)
	res.Count = binary.BigEndian.Uint32(pkt[pktOffCnt:])
	for k := 0; k < pa.lay.Modules; k++ {
		off := pktOffValues + pktPerModule*k
		res.Values[k] = math.Float32frombits(binary.BigEndian.Uint32(pkt[off:]))
		res.Overflow[k] = pkt[off+4] != 0
	}
	return nil
}

// do runs one operation through the pipeline and decodes the response into
// res. A nil res means the register side effect is all the caller wants:
// the switch absorbs the packet (pisa.Switch.Absorb), running only the
// steps that feed its registers, and no response is built.
func (pa *PipelineAggregator) do(op byte, idx int, vals []float32, res *Result) error {
	if idx < 0 || idx >= pa.lay.Slots {
		return fmt.Errorf("core: slot %d out of range %d", idx, pa.lay.Slots)
	}
	if err := pa.putPacket(pa.req, op, uint32(idx), vals); err != nil {
		return err
	}
	if res == nil {
		return pa.sw.Absorb(1, pa.req)
	}
	out, err := pa.sw.ProcessScratch(1, pa.req)
	if err != nil {
		return err
	}
	return pa.parseInto(out.Packet, res)
}

// AddInto accumulates one value per module into the slot and stores the
// running sums in res, reusing the capacity of res.Values and
// res.Overflow; with a nil res the pass computes no sums at all (the
// switch absorbs the packet). Nothing is allocated
// once res has grown to the module count. The operation runs on scratch
// that is valid only until the next call on this replica (the request
// packet here, the pisa.Switch's PHV and deparse buffer below); res is the
// caller's storage, decoded before the call returns, and stays valid
// afterwards.
func (pa *PipelineAggregator) AddInto(idx int, vals []float32, res *Result) error {
	return pa.do(PktAdd, idx, vals, res)
}

// SetInto is AddInto into a slot treated as freshly zeroed: whatever the
// slot held is overwritten in the same single pipeline pass (PktSet), and
// res and the slot's registers end up exactly as ReadResetInto followed by
// AddInto leave them. See AddInto for the storage contract.
func (pa *PipelineAggregator) SetInto(idx int, vals []float32, res *Result) error {
	return pa.do(PktSet, idx, vals, res)
}

// ReadInto stores the slot's renormalized sums in res without modifying
// state; see AddInto for the storage contract.
func (pa *PipelineAggregator) ReadInto(idx int, res *Result) error {
	return pa.do(PktRead, idx, nil, res)
}

// ReadResetInto stores the sums in res and zeroes the slot and its
// counters; see AddInto for the storage contract.
func (pa *PipelineAggregator) ReadResetInto(idx int, res *Result) error {
	return pa.do(PktReadReset, idx, nil, res)
}

// Add accumulates one value per module into the slot and returns the
// running sums in a fresh Result.
func (pa *PipelineAggregator) Add(idx int, vals []float32) (Result, error) {
	var r Result
	err := pa.AddInto(idx, vals, &r)
	return r, err
}

// Read returns the slot's renormalized sums without modifying state.
func (pa *PipelineAggregator) Read(idx int) (Result, error) {
	var r Result
	err := pa.ReadInto(idx, &r)
	return r, err
}

// ReadReset returns the sums and zeroes the slot and its counters.
func (pa *PipelineAggregator) ReadReset(idx int) (Result, error) {
	var r Result
	err := pa.ReadResetInto(idx, &r)
	return r, err
}
