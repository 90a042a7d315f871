package core

import (
	"fmt"
	"math"

	"fpisa/internal/fpnum"
)

// Stats counts FPISA addition events, the observability behind the paper's
// §5.2.1 error-source analysis (rounding vs. overwrite vs. left-shift).
type Stats struct {
	// Adds is the number of accepted additions.
	Adds uint64
	// RightShiftPath counts adds where the incoming exponent was <= the
	// stored one (the incoming mantissa is right-shifted; truncation there
	// is ordinary alignment rounding).
	RightShiftPath uint64
	// InexactRightShifts counts right-shift-path adds that dropped nonzero
	// bits — the "rounding" error source.
	InexactRightShifts uint64
	// StoredShiftPath counts full-FPISA adds that shifted the stored
	// mantissa (the RSAW path).
	StoredShiftPath uint64
	// InexactStoredShifts counts stored-shift adds that dropped nonzero
	// bits from the accumulator.
	InexactStoredShifts uint64
	// LeftShiftPath counts FPISA-A adds that left-shifted the incoming
	// mantissa into the headroom.
	LeftShiftPath uint64
	// LeftShiftOverflows counts left-shift-path adds that overflowed the
	// register — the rare case where the element-wise spread exceeds what
	// the headroom can absorb even without an overwrite (the paper's
	// "left-shift" error source, <0.1% of additions in §5.2.1).
	LeftShiftOverflows uint64
	// OverwritePath counts FPISA-A adds that took the overwrite branch
	// (incoming exponent more than Headroom larger than stored).
	OverwritePath uint64
	// OverwriteDiscards counts overwrite-path adds that discarded a
	// nonzero accumulated value — the paper's "overwrite error" events.
	OverwriteDiscards uint64
	// Overflows counts sticky signed-overflow events (§3.3).
	Overflows uint64
	// SpecialInputs counts rejected NaN/Inf inputs.
	SpecialInputs uint64
	// ReadOverflows/ReadUnderflows count read-outs saturating to ±Inf or
	// denormal/zero.
	ReadOverflows  uint64
	ReadUnderflows uint64
}

// Accumulator is the bit-exact software model of an FPISA register-array
// pair: per slot, an exponent register and a signed 32-bit mantissa
// register. It is the equivalent of the paper's "C library that simulates
// gradient aggregation using a faithful implementation of the FPISA-A
// addition algorithm" (§5.2), plus the full-FPISA mode.
type Accumulator struct {
	cfg      Config
	f        fpnum.Format // cfg.Profile's wire format
	headroom int          // cfg.Profile.Headroom()
	exps     []uint32     // biased exponents (ExpBits wide)
	mans     []int32      // two's-complement mantissas
	flags    []slotFlags
	stats    Stats
}

type slotFlags uint8

const (
	flagInvalid slotFlags = 1 << iota
	flagOverflow
)

// NewAccumulator allocates n slots under the given configuration.
func NewAccumulator(cfg Config, n int) (*Accumulator, error) {
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: accumulator size %d", n)
	}
	return &Accumulator{
		cfg:      cfg,
		f:        cfg.Profile.Format.Format(),
		headroom: cfg.Profile.Headroom(),
		exps:     make([]uint32, n),
		mans:     make([]int32, n),
		flags:    make([]slotFlags, n),
	}, nil
}

// MustNewAccumulator is NewAccumulator, panicking on error.
func MustNewAccumulator(cfg Config, n int) *Accumulator {
	a, err := NewAccumulator(cfg, n)
	if err != nil {
		panic(err)
	}
	return a
}

// Len returns the slot count.
func (a *Accumulator) Len() int { return len(a.mans) }

// Config returns the instance configuration.
func (a *Accumulator) Config() Config { return a.cfg }

// Stats returns a snapshot of the event counters.
func (a *Accumulator) Stats() Stats { return a.stats }

// wrap folds a 64-bit intermediate into the 32-bit register and reports
// signed overflow.
func wrap(x int64) (int32, bool) { return int32(x), x != int64(int32(x)) }

// sar arithmetic-right-shifts a register value, clamping the distance at
// 31; negative values round toward negative infinity, exactly as the
// switch's signed shifter behaves. It also reports whether nonzero bits were
// shifted out.
func sar(v int32, by int) (int32, bool) {
	sh := uint(min(by, regBits-1))
	out := v >> sh
	return out, int64(out)<<sh != int64(v)
}

// extract splits packed input bits into alignment-ready (eEff, signedMan),
// handling denormals per IEEE (implied 0, effective exponent 1).
func (a *Accumulator) extract(bitsIn uint32) (e uint32, m int32, special bool) {
	f := a.f
	sign, exp, frac := f.Split(uint64(bitsIn))
	if exp == f.ExpMask() { // Inf/NaN: not representable in FPISA state
		return 0, 0, true
	}
	man := uint32(frac)
	e = uint32(exp)
	if exp != 0 {
		man |= 1 << f.ManBits
	} else {
		e = 1 // denormal: 0.frac × 2^(1-bias)
	}
	m = int32(man << a.cfg.Profile.Guard)
	if sign != 0 {
		m = -m
	}
	return e, m, false
}

// AddBits accumulates one packed value (in the configured wire format) into
// slot i, using the configured mode's alignment rules.
func (a *Accumulator) AddBits(i int, bitsIn uint32) error {
	if i < 0 || i >= len(a.mans) {
		return fmt.Errorf("core: slot %d out of range %d", i, len(a.mans))
	}
	e, m, special := a.extract(bitsIn)
	if special {
		a.flags[i] |= flagInvalid
		a.stats.SpecialInputs++
		return nil
	}

	E := a.exps[i]
	M := a.mans[i]
	d := int(e) - int(E)

	var next int64
	leftPath := false
	switch {
	case d <= 0:
		// Incoming value is no larger: right-shift it into alignment.
		shifted, inexact := sar(m, -d)
		if inexact {
			a.stats.InexactRightShifts++
		}
		next = int64(M) + int64(shifted)
		a.stats.RightShiftPath++

	case a.cfg.Mode == ModeFull:
		// RSAW: shift the stored mantissa and accumulate in one step;
		// the exponent register took the larger incoming exponent.
		shifted, inexact := sar(M, d)
		if inexact {
			a.stats.InexactStoredShifts++
		}
		next = int64(shifted) + int64(m)
		a.exps[i] = e
		a.stats.StoredShiftPath++

	case d <= a.headroom:
		// FPISA-A: the stored mantissa cannot be shifted; left-shift the
		// incoming value into the headroom and keep the exponent.
		next = int64(M) + int64(m)<<uint(d)
		a.stats.LeftShiftPath++
		leftPath = true

	default:
		// FPISA-A overwrite: the gap exceeds the headroom; replace the
		// accumulated value entirely (§4.3's bounded numeric error).
		if M != 0 {
			a.stats.OverwriteDiscards++
		}
		next = int64(m)
		a.exps[i] = e
		a.stats.OverwritePath++
	}

	nm, ovf := wrap(next)
	if ovf {
		a.flags[i] |= flagOverflow
		a.stats.Overflows++
		if leftPath {
			a.stats.LeftShiftOverflows++
		}
	}
	a.mans[i] = nm
	a.stats.Adds++
	return nil
}

// Add narrows a host float32 to the configured wire format and accumulates
// it. A 16-bit format narrows by round-to-nearest-even whatever the
// profile's read-out rounding.
func (a *Accumulator) Add(i int, v float32) error {
	narrow := NumericProfile{Format: a.cfg.Profile.Format, Rounding: RoundingRNE}
	return a.AddBits(i, narrow.EncodeValue(v))
}

// Overflowed reports the sticky overflow flag of a slot (§3.3 signalling).
func (a *Accumulator) Overflowed(i int) bool { return a.flags[i]&flagOverflow != 0 }

// Invalid reports whether a slot absorbed a NaN/Inf input.
func (a *Accumulator) Invalid(i int) bool { return a.flags[i]&flagInvalid != 0 }

// RawState returns the internal (exponent, mantissa) pair of a slot — the
// exact register contents a switch would hold.
func (a *Accumulator) RawState(i int) (exp uint32, man int32) {
	return a.exps[i], a.mans[i]
}

// Reset zeroes a slot.
func (a *Accumulator) Reset(i int) {
	a.exps[i], a.mans[i], a.flags[i] = 0, 0, 0
}

// Value64 returns the slot's exact arithmetic value as a float64: the
// denormalized register pair interpreted as man × 2^(exp − bias −
// mantissaBits − guardBits). Exact for every reachable state; used by the
// error analysis so FPISA error is not conflated with FP32 packing error.
func (a *Accumulator) Value64(i int) float64 {
	if a.flags[i]&flagInvalid != 0 {
		return math.NaN()
	}
	M := a.mans[i]
	if M == 0 {
		return 0
	}
	exp := int(a.exps[i]) - a.f.Bias() - a.f.ManBits - int(a.cfg.Profile.Guard)
	return math.Ldexp(float64(M), exp)
}
