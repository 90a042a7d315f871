package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"fpisa/internal/fpnum"
	"fpisa/internal/pisa"
)

// ProfileFormat names a wire floating-point format in a NumericProfile. The
// octet values are wire-stable: they appear verbatim in the aggservice
// control-plane frames.
type ProfileFormat uint8

const (
	// FormatF32 is IEEE 754 binary32, the paper's primary format.
	FormatF32 ProfileFormat = iota
	// FormatF16 is IEEE 754 binary16 (§5.2's FP16 study).
	FormatF16
	// FormatBF16 is bfloat16: FP32's exponent range, 7 fraction bits.
	FormatBF16

	formatCount
)

// Format returns the fpnum descriptor for the profile format.
func (f ProfileFormat) Format() fpnum.Format {
	switch f {
	case FormatF16:
		return fpnum.FP16
	case FormatBF16:
		return fpnum.BF16
	default:
		return fpnum.FP32
	}
}

func (f ProfileFormat) String() string {
	switch f {
	case FormatF32:
		return "f32"
	case FormatF16:
		return "f16"
	case FormatBF16:
		return "bf16"
	default:
		return fmt.Sprintf("format(%d)", uint8(f))
	}
}

// ProfileRounding names a read-out rounding mode in a NumericProfile, with
// wire-stable octet values.
type ProfileRounding uint8

const (
	// RoundingTruncate drops excess bits at read-out (Appendix A.1).
	RoundingTruncate ProfileRounding = iota
	// RoundingRNE rounds to nearest/even using the guard bits.
	RoundingRNE

	roundingCount
)

func (r ProfileRounding) String() string {
	switch r {
	case RoundingTruncate:
		return "trunc"
	case RoundingRNE:
		return "rne"
	default:
		return fmt.Sprintf("rounding(%d)", uint8(r))
	}
}

// NumericProfile is the per-job arithmetic contract negotiated at admit:
// which wire format a job's values travel in, how many guard bits the
// 32-bit mantissa register reserves below them, and how read-out rounds.
// It is the arithmetic half of a Config, so the switch builds a job's
// backend, pipeline or Accumulator, from exactly what it negotiated. The
// zero value is the paper's standard configuration (FP32, no guard bits,
// truncating read-out), so profile-oblivious callers keep their semantics.
type NumericProfile struct {
	// Format selects the wire value format.
	Format ProfileFormat
	// Guard is the number of guard bits (Appendix A.1), reducing headroom
	// one-for-one.
	Guard uint8
	// Rounding selects the read-out rounding mode.
	Rounding ProfileRounding
}

// DefaultProfile is the zero profile: f32, no guard bits, truncation.
var DefaultProfile = NumericProfile{}

// regBits is the mantissa register width: the switch's registers are 32
// bits wide (§3.3).
const regBits = 32

// Headroom returns the spare high-order mantissa-register bits the profile
// leaves for left-shifting and carry absorption: the register minus one sign
// bit, the explicit mantissa (fraction plus the implied 1) and the guard
// bits. The default profile has 7 (§3.3, §4.3), so 2^7 = 128 same-exponent
// additions of the largest mantissa fit before the register overflows.
func (p NumericProfile) Headroom() int {
	return regBits - 1 - (p.Format.Format().ManBits + 1) - int(p.Guard)
}

// ValueBytes returns the wire width of one value under this profile: 2
// bytes for the 16-bit formats, 4 for f32 and, as Format reads it, any
// unknown id. Every ADD and RESULT encode and decode asks, so it switches on
// the id instead of building the fpnum.Format.
func (p NumericProfile) ValueBytes() int {
	switch p.Format {
	case FormatF16, FormatBF16:
		return 2
	}
	return 4
}

// Validate rejects unknown format/rounding octets, a profile whose guard
// bits leave Headroom() < 1, and round-to-nearest-even without a guard bit.
func (p NumericProfile) Validate() error {
	if p.Format >= formatCount {
		return fmt.Errorf("core: unknown profile format id %d", uint8(p.Format))
	}
	if p.Rounding >= roundingCount {
		return fmt.Errorf("core: unknown profile rounding id %d", uint8(p.Rounding))
	}
	if h := p.Headroom(); h < 1 {
		return fmt.Errorf("core: headroom %d < 1: a %d-bit register is too narrow for %s's mantissa plus %d guard bits",
			h, regBits, p.Format, p.Guard)
	}
	if p.Rounding == RoundingRNE && p.Guard < 1 {
		return fmt.Errorf("core: round-to-nearest-even needs at least one guard bit")
	}
	return nil
}

// String renders the canonical spelling parsed by ParseProfile:
// "f32/trunc", "bf16/rne/g2".
func (p NumericProfile) String() string {
	s := p.Format.String() + "/" + p.Rounding.String()
	if p.Guard > 0 {
		s += "/g" + strconv.Itoa(int(p.Guard))
	}
	return s
}

// ParseProfile parses a profile spelling: slash-separated fields, in any
// order after the leading format, from {f32,f16,bf16}, {trunc,rne} and
// g<N> for guard bits. Omitted fields default to the zero profile's
// (truncation, zero guard bits). The parsed profile is validated.
func ParseProfile(s string) (NumericProfile, error) {
	var p NumericProfile
	fields := strings.Split(strings.TrimSpace(strings.ToLower(s)), "/")
	if len(fields) == 0 || fields[0] == "" {
		return p, fmt.Errorf("core: empty profile spec")
	}
	switch fields[0] {
	case "f32", "fp32":
		p.Format = FormatF32
	case "f16", "fp16":
		p.Format = FormatF16
	case "bf16":
		p.Format = FormatBF16
	default:
		return p, fmt.Errorf("core: unknown profile format %q", fields[0])
	}
	for _, f := range fields[1:] {
		switch {
		case f == "trunc":
			p.Rounding = RoundingTruncate
		case f == "rne":
			p.Rounding = RoundingRNE
		case strings.HasPrefix(f, "g"):
			n, err := strconv.Atoi(f[1:])
			if err != nil || n < 0 || n > 255 {
				return p, fmt.Errorf("core: bad guard-bit field %q", f)
			}
			p.Guard = uint8(n)
		default:
			return p, fmt.Errorf("core: unknown profile field %q", f)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// EncodeValue converts a host float32 to the profile's wire bits,
// right-aligned. Narrowing follows the profile's rounding mode, matching
// what a worker NIC pipeline would emit.
func (p NumericProfile) EncodeValue(v float32) uint32 {
	switch p.Format {
	case FormatF16:
		if p.Rounding == RoundingRNE {
			return uint32(fpnum.F32ToF16(v))
		}
		return uint32(fpnum.F32ToF16Truncate(v))
	case FormatBF16:
		if p.Rounding == RoundingRNE {
			return uint32(fpnum.F32ToBF16(v))
		}
		return uint32(fpnum.F32ToBF16Truncate(v))
	default:
		return math.Float32bits(v)
	}
}

// DecodeValue widens the profile's wire bits back to float32 — exact for
// every 16-bit format value.
func (p NumericProfile) DecodeValue(bits uint32) float32 {
	switch p.Format {
	case FormatF16:
		return fpnum.Float16(bits).Float32()
	case FormatBF16:
		return fpnum.BFloat16(bits).Float32()
	default:
		return math.Float32frombits(bits)
	}
}

// PutValue writes one wire value at dst (big-endian, ValueBytes wide).
func (p NumericProfile) PutValue(dst []byte, v float32) {
	if p.ValueBytes() == 2 {
		binary.BigEndian.PutUint16(dst, uint16(p.EncodeValue(v)))
		return
	}
	binary.BigEndian.PutUint32(dst, p.EncodeValue(v))
}

// GetValue reads one wire value at src (big-endian, ValueBytes wide).
func (p NumericProfile) GetValue(src []byte) float32 {
	if p.ValueBytes() == 2 {
		return p.DecodeValue(uint32(binary.BigEndian.Uint16(src)))
	}
	return p.DecodeValue(binary.BigEndian.Uint32(src))
}

// ProfileAggregator runs per-slot FPISA aggregation under one numeric
// profile. Both backends are built from the same Config{Profile, Mode}: the
// default profile drives the compiled pisa pipeline, while every other
// profile runs the bit-exact Accumulator model (the paper's C-library
// equivalent; BuildProgram compiles only the default profile). Both paths
// share the Result surface, so shards address a bank of these without caring
// which arithmetic backs a slot range.
type ProfileAggregator struct {
	prof    NumericProfile
	modules int
	slots   int

	pipe *PipelineAggregator // compiled path (default profile only)

	acc    *Accumulator // model path
	counts []uint32
}

// NewProfileAggregator builds the aggregation backend for one profile. The
// default profile compiles (and owns) a pisa program; Replicate then stamps
// out register banks without recompiling.
func NewProfileAggregator(p NumericProfile, mode Mode, modules, slots int, arch pisa.Arch) (*ProfileAggregator, error) {
	cfg := Config{Profile: p, Mode: mode}
	pa := &ProfileAggregator{prof: p, modules: modules, slots: slots}
	if p == DefaultProfile {
		pipe, err := NewPipelineAggregator(cfg, modules, slots, arch)
		if err != nil {
			return nil, err
		}
		pa.pipe = pipe
		return pa, nil
	}
	acc, err := NewAccumulator(cfg, modules*slots)
	if err != nil {
		return nil, err
	}
	pa.acc = acc
	pa.counts = make([]uint32, slots)
	return pa, nil
}

// Profile returns the profile this aggregator was built for.
func (pa *ProfileAggregator) Profile() NumericProfile { return pa.prof }

// Utilization returns the compiled resource report; the zero report for
// model-backed profiles, which consume no pipeline stages.
func (pa *ProfileAggregator) Utilization() pisa.Utilization {
	if pa.pipe != nil {
		return pa.pipe.Utilization()
	}
	return pisa.Utilization{}
}

// Replicate stamps out an independent register bank running the same
// arithmetic: the compiled program is shared (one P4 compile per profile),
// state is not.
func (pa *ProfileAggregator) Replicate() *ProfileAggregator {
	out := &ProfileAggregator{prof: pa.prof, modules: pa.modules, slots: pa.slots}
	if pa.pipe != nil {
		out.pipe = pa.pipe.Replicate()
		return out
	}
	out.acc = MustNewAccumulator(pa.acc.Config(), pa.modules*pa.slots)
	out.counts = make([]uint32, pa.slots)
	return out
}

func (pa *ProfileAggregator) checkIdx(idx int) error {
	if idx < 0 || idx >= pa.slots {
		return fmt.Errorf("core: slot %d out of range %d", idx, pa.slots)
	}
	return nil
}

// readInto assembles the model path's Result for a slot.
func (pa *ProfileAggregator) readInto(idx int, res *Result) {
	res.resize(pa.modules)
	res.Count = pa.counts[idx]
	for k := 0; k < pa.modules; k++ {
		i := idx*pa.modules + k
		res.Values[k] = pa.acc.ReadFloat32(i)
		res.Overflow[k] = pa.acc.Overflowed(i)
	}
}

// AddInto accumulates one value per module into the slot and stores the
// running sums in res, exactly as PipelineAggregator.AddInto does: res's
// slices are reused, a nil res discards the sums unread, and nothing is
// allocated in steady state. Values arrive as host float32; the model path
// narrows them to the profile's wire format first, so results are
// bit-identical to a host reference that feeds AddBits(EncodeValue(v)).
func (pa *ProfileAggregator) AddInto(idx int, vals []float32, res *Result) error {
	if pa.pipe != nil {
		return pa.pipe.AddInto(idx, vals, res)
	}
	if err := pa.checkIdx(idx); err != nil {
		return err
	}
	if len(vals) > pa.modules {
		return fmt.Errorf("core: %d values exceed %d modules", len(vals), pa.modules)
	}
	for k, v := range vals {
		if err := pa.acc.AddBits(idx*pa.modules+k, pa.prof.EncodeValue(v)); err != nil {
			return err
		}
	}
	pa.counts[idx]++
	if res != nil {
		pa.readInto(idx, res)
	}
	return nil
}

// SetInto is AddInto into a slot treated as freshly zeroed — the first ADD
// of a slot version. The compiled path overwrites the slot in one pipeline
// pass (PktSet); the model path resets, then adds. Either way res and the
// slot end up exactly as ReadResetInto followed by AddInto leave them.
func (pa *ProfileAggregator) SetInto(idx int, vals []float32, res *Result) error {
	if pa.pipe != nil {
		return pa.pipe.SetInto(idx, vals, res)
	}
	if err := pa.ReadResetInto(idx, nil); err != nil {
		return err
	}
	return pa.AddInto(idx, vals, res)
}

// ReadResetInto stores the sums in res and zeroes the slot and its
// counter; see AddInto for the storage contract.
func (pa *ProfileAggregator) ReadResetInto(idx int, res *Result) error {
	if pa.pipe != nil {
		return pa.pipe.ReadResetInto(idx, res)
	}
	if err := pa.checkIdx(idx); err != nil {
		return err
	}
	if res != nil {
		pa.readInto(idx, res)
	}
	for k := 0; k < pa.modules; k++ {
		pa.acc.Reset(idx*pa.modules + k)
	}
	pa.counts[idx] = 0
	return nil
}

// Add is AddInto returning a fresh Result the caller may keep.
func (pa *ProfileAggregator) Add(idx int, vals []float32) (Result, error) {
	var r Result
	err := pa.AddInto(idx, vals, &r)
	return r, err
}

// ReadReset is ReadResetInto returning a fresh Result the caller may keep.
func (pa *ProfileAggregator) ReadReset(idx int) (Result, error) {
	var r Result
	err := pa.ReadResetInto(idx, &r)
	return r, err
}
