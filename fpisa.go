// Package fpisa is the public API of the FPISA reproduction: floating-point
// aggregation on programmable-switch pipelines, after "Unlocking the Power
// of Inline Floating-Point Operations on Programmable Switches" (NSDI'22).
//
// Three entry points cover most uses:
//
//   - Aggregator — the bit-exact software model of FPISA's decoupled
//     exponent/signed-mantissa accumulation (full and approximate modes),
//     for embedding in-switch-equivalent FP aggregation in applications
//     and for numerical studies.
//   - SwitchSim — the same algorithm compiled to a simulated PISA pipeline
//     and driven by packets, with the paper's resource accounting.
//   - Sum / CompareKey — one-shot helpers.
//
// The substrates live under internal/: the pipeline simulator, the
// aggregation service (a multi-tenant sharded switch with a runtime job
// lifecycle), and the transport fabrics it runs over — a vectored,
// buffer-reusing I/O contract (internal/transport's SendBatch/RecvBatch/
// BatchHandler) that moves packet vectors per handler call instead of one
// datagram and two copies at a time. The cmd/fpisa-bench tool regenerates
// every table and figure of the paper's evaluation; cmd/fpisa-switch and
// cmd/fpisa-query run and operate the service over real sockets.
package fpisa

import (
	"fpisa/internal/core"
	"fpisa/internal/fpnum"
	"fpisa/internal/pisa"
)

// Mode selects the FPISA variant.
type Mode int

const (
	// ModeApprox is FPISA-A (§4.3): deployable on existing switch
	// hardware; values whose exponents differ by more than the headroom
	// overwrite the accumulator (a bounded, rare error on gradient-like
	// data).
	ModeApprox Mode = iota
	// ModeFull is complete FPISA: exact alignment in both directions; a
	// pipeline implementation needs the paper's §4.2 hardware extensions.
	ModeFull
)

func (m Mode) String() string {
	if m == ModeFull {
		return "FPISA"
	}
	return "FPISA-A"
}

func (m Mode) coreMode() core.Mode {
	if m == ModeFull {
		return core.ModeFull
	}
	return core.ModeApprox
}

// Aggregator is a vector of FPISA accumulation slots.
type Aggregator struct {
	acc *core.Accumulator
}

// NewAggregator creates an FP32 aggregator with n slots.
func NewAggregator(mode Mode, n int) (*Aggregator, error) {
	acc, err := core.NewAccumulator(core.DefaultFP32(mode.coreMode()), n)
	if err != nil {
		return nil, err
	}
	return &Aggregator{acc: acc}, nil
}

// NewAggregatorFP16 creates an FP16-wire-format aggregator with n slots.
func NewAggregatorFP16(mode Mode, n int) (*Aggregator, error) {
	cfg := core.Config{Profile: core.NumericProfile{Format: core.FormatF16}, Mode: mode.coreMode()}
	acc, err := core.NewAccumulator(cfg, n)
	if err != nil {
		return nil, err
	}
	return &Aggregator{acc: acc}, nil
}

// Add accumulates v into slot i.
func (a *Aggregator) Add(i int, v float32) error { return a.acc.Add(i, v) }

// Read returns slot i's renormalized value without modifying it.
func (a *Aggregator) Read(i int) float32 { return a.acc.ReadFloat32(i) }

// ReadReset returns slot i's value and zeroes the slot.
func (a *Aggregator) ReadReset(i int) float32 {
	v := a.acc.ReadFloat32(i)
	a.acc.Reset(i)
	return v
}

// Overflowed reports slot i's sticky overflow flag (§3.3).
func (a *Aggregator) Overflowed(i int) bool { return a.acc.Overflowed(i) }

// Len returns the slot count.
func (a *Aggregator) Len() int { return a.acc.Len() }

// Sum aggregates values through a single FPISA slot and returns the result
// — the switch-equivalent of summing a packet stream.
func Sum(mode Mode, values []float32) (float32, error) {
	a, err := NewAggregator(mode, 1)
	if err != nil {
		return 0, err
	}
	for _, v := range values {
		if err := a.Add(0, v); err != nil {
			return 0, err
		}
	}
	return a.Read(0), nil
}

// CompareKey maps an FP32 value to an unsigned key whose integer order
// matches the floating-point order — FPISA's in-switch comparison (§6),
// one sign test plus one XOR.
func CompareKey(v float32) uint32 { return fpnum.OrderedKey32(v) }

// SwitchSim is the FPISA algorithm compiled to a simulated PISA pipeline
// and driven by packets.
type SwitchSim struct {
	pa *core.PipelineAggregator
}

// NewSwitchSim compiles FPISA for `modules` parallel values per packet and
// `slots` accumulation slots. With extended=false the base Tofino-like
// architecture is used (FPISA-A only, one module); extended=true enables
// the paper's §4.2 hardware extensions.
func NewSwitchSim(mode Mode, modules, slots int, extended bool) (*SwitchSim, error) {
	arch := pisa.BaseArch()
	if extended {
		arch = pisa.ExtendedArch()
	}
	pa, err := core.NewPipelineAggregator(core.DefaultFP32(mode.coreMode()), modules, slots, arch)
	if err != nil {
		return nil, err
	}
	return &SwitchSim{pa: pa}, nil
}

// Add sends an ADD packet carrying one value per module and returns the
// running sums.
func (s *SwitchSim) Add(slot int, vals []float32) ([]float32, error) {
	return s.pa.Add(slot, vals)
}

// Read sends a READ packet.
func (s *SwitchSim) Read(slot int) ([]float32, error) {
	return s.pa.Read(slot)
}

// ReadReset sends a READ+RESET packet.
func (s *SwitchSim) ReadReset(slot int) ([]float32, error) {
	return s.pa.ReadReset(slot)
}

// Utilization renders the compiled program's resource report (the paper's
// Table 3 layout).
func (s *SwitchSim) Utilization() string { return s.pa.Utilization().String() }

// MaxModules reports how many parallel FPISA modules fit per pipeline: one
// on existing hardware (Appendix B's VLIW pressure), several with the §4.2
// extensions.
func MaxModules(extended bool) int {
	arch := pisa.BaseArch()
	if extended {
		arch = pisa.ExtendedArch()
	}
	return core.MaxModules(arch)
}

// Version identifies the reproduction. 1.1 redesigned the transport layer
// around vectored zero-copy I/O and adaptive batching. 1.2 gives every UDP
// datagram one frame layout, [id count {len pkt}·count]; a 1.1 peer's
// unframed single-packet and 0xFE batch datagrams are now dropped as
// malformed.
const Version = "fpisa-repro 1.2 (NSDI'22 reproduction)"
