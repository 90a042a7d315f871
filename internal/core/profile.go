package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// Accumulator from exactly what it negotiated. The zero value is the
// paper's standard configuration (FP32, no guard bits, truncating
// read-out), so profile-oblivious callers keep their semantics.
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
	putWord(dst, 0, p.ValueBytes(), p.EncodeValue(v))
}

// GetValue reads one wire value at src (big-endian, ValueBytes wide).
func (p NumericProfile) GetValue(src []byte) float32 {
	return p.DecodeValue(word(src, 0, p.ValueBytes()))
}

// AppendValues appends vals, each narrowed to one wire value, to dst. The
// slice grows once; f32 values are written as their bits, the 16-bit
// formats narrow through EncodeValue.
func (p NumericProfile) AppendValues(dst []byte, vals []float32) []byte {
	w := p.ValueBytes()
	n := len(dst)
	dst = slices.Grow(dst, w*len(vals))[:n+w*len(vals)]
	region := dst[n:]
	if w == 4 {
		for i, v := range vals {
			binary.BigEndian.PutUint32(region[4*i:], math.Float32bits(v))
		}
		return dst
	}
	for i, v := range vals {
		binary.BigEndian.PutUint16(region[2*i:], uint16(p.EncodeValue(v)))
	}
	return dst
}

// GetValues widens the len(dst) wire values at the front of src into dst.
func (p NumericProfile) GetValues(dst []float32, src []byte) {
	w := p.ValueBytes()
	src = src[:w*len(dst)]
	if w == 4 {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.BigEndian.Uint32(src[4*i:]))
		}
		return
	}
	for i := range dst {
		dst[i] = p.DecodeValue(uint32(binary.BigEndian.Uint16(src[2*i:])))
	}
}

// values widens a region of wire values to a fresh float32 slice.
func (p NumericProfile) values(src []byte) []float32 {
	out := make([]float32, len(src)/p.ValueBytes())
	p.GetValues(out, src)
	return out
}

// ProfileAggregator runs per-slot FPISA aggregation under one numeric
// profile on the bit-exact Accumulator model (the paper's C-library
// equivalent, §5.2), built from the Config{Profile, Mode} the job
// negotiated. It serves every profile, the default one included; the
// compiled program (BuildProgram, PipelineAggregator) is the compile-time
// resource oracle and the differential checker of this model. Its
// operations take and write the profile's wire bytes.
type ProfileAggregator struct {
	prof    NumericProfile
	modules int
	slots   int
	acc     *Accumulator
}

// NewProfileAggregator builds the aggregation bank for one profile: modules
// values per slot, slots slots. The accumulator runs any module count on
// any architecture, so arch is not consulted; whether the default program
// fits a switch is decided where it is compiled (BuildProgram).
func NewProfileAggregator(p NumericProfile, mode Mode, modules, slots int, _ pisa.Arch) (*ProfileAggregator, error) {
	acc, err := NewAccumulator(Config{Profile: p, Mode: mode}, modules*slots)
	if err != nil {
		return nil, err
	}
	return &ProfileAggregator{prof: p, modules: modules, slots: slots, acc: acc}, nil
}

// Replicate stamps out an independent register bank running the same
// arithmetic: same Config and shape, fresh state.
func (pa *ProfileAggregator) Replicate() *ProfileAggregator {
	out := *pa
	out.acc = MustNewAccumulator(pa.acc.Config(), pa.modules*pa.slots)
	return &out
}

// check validates an operation's slot and buffers and returns the slot's
// first module and the width of one value; every operation runs it once.
func (pa *ProfileAggregator) check(idx int, vals, out []byte) (base, w int, err error) {
	if idx < 0 || idx >= pa.slots {
		return 0, 0, fmt.Errorf("core: slot %d out of range %d", idx, pa.slots)
	}
	w = pa.prof.ValueBytes()
	return idx * pa.modules, w, checkBuffers(vals, out, w, pa.modules)
}

// word reads value k of a region of w-byte big-endian wire values.
func word(b []byte, k, w int) uint32 {
	if w == 2 {
		return uint32(binary.BigEndian.Uint16(b[2*k:]))
	}
	return binary.BigEndian.Uint32(b[4*k:])
}

// putWord writes value k of a region of w-byte big-endian wire values.
func putWord(b []byte, k, w int, v uint32) {
	if w == 2 {
		binary.BigEndian.PutUint16(b[2*k:], uint16(v))
		return
	}
	binary.BigEndian.PutUint32(b[4*k:], v)
}

// readOut writes module i's ReadBits as value k of out and reports its
// sticky overflow flag.
func (pa *ProfileAggregator) readOut(i, k, w int, out []byte) bool {
	putWord(out, k, w, pa.acc.ReadBits(i))
	return pa.acc.Overflowed(i)
}

// AddInto is PipelineAggregator.AddInto in the profile's wire format: it
// feeds the wire bits to the accumulator as they came and writes ReadBits
// out, bit-identical to a host reference doing the same.
func (pa *ProfileAggregator) AddInto(idx int, vals, out []byte) (ovf bool, err error) {
	return pa.addInto(idx, vals, out, false)
}

// SetInto is AddInto into a slot treated as freshly zeroed — the first ADD
// of a slot version: each module is reset in place, then added to, so out
// and the slot end up exactly as ReadResetInto followed by AddInto leave
// them.
func (pa *ProfileAggregator) SetInto(idx int, vals, out []byte) (ovf bool, err error) {
	return pa.addInto(idx, vals, out, true)
}

// addInto is AddInto, or SetInto when set: one loop over the slot's
// modules resets each (if set), adds its value if vals has one, and, with
// an out, reads the module back.
func (pa *ProfileAggregator) addInto(idx int, vals, out []byte, set bool) (ovf bool, err error) {
	base, w, err := pa.check(idx, vals, out)
	if err != nil {
		return false, err
	}
	n := len(vals) / w
	for k := 0; k < pa.modules; k++ {
		if set {
			pa.acc.Reset(base + k)
		}
		if k < n {
			pa.acc.add(base+k, word(vals, k, w))
		}
		if out != nil && pa.readOut(base+k, k, w, out) {
			ovf = true
		}
	}
	return ovf, nil
}

// ReadResetInto writes the sums into out and zeroes the slot; see AddInto
// for the storage contract.
func (pa *ProfileAggregator) ReadResetInto(idx int, out []byte) (ovf bool, err error) {
	base, w, err := pa.check(idx, nil, out)
	if err != nil {
		return false, err
	}
	for k := 0; k < pa.modules; k++ {
		if out != nil && pa.readOut(base+k, k, w, out) {
			ovf = true
		}
		pa.acc.Reset(base + k)
	}
	return ovf, nil
}

// Add accumulates host values, narrowed to the profile's wire format, into
// the slot and returns the running sums widened back to float32.
func (pa *ProfileAggregator) Add(idx int, vals []float32) ([]float32, error) {
	return hostOp(pa.prof, pa.modules, vals, func(v, out []byte) (bool, error) { return pa.AddInto(idx, v, out) })
}

// ReadReset returns the slot's sums widened to float32 and zeroes the slot.
func (pa *ProfileAggregator) ReadReset(idx int) ([]float32, error) {
	return hostOp(pa.prof, pa.modules, nil, func(_, out []byte) (bool, error) { return pa.ReadResetInto(idx, out) })
}
