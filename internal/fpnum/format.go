// Package fpnum provides the floating-point number kernel used throughout the
// FPISA reproduction: format descriptors, bit-level pack/unpack for FP16,
// bfloat16 and FP32, the monotonic ordering key and the exact reference sum.
//
// Everything in this package is host-side arithmetic. The switch-side
// representation (decoupled exponent + signed mantissa) lives in
// internal/core; it consumes the decompositions defined here.
package fpnum

import "fmt"

// Format describes an IEEE-754-style binary floating point format with a sign
// bit, ExpBits exponent bits and ManBits stored (fraction) mantissa bits.
type Format struct {
	// Name is a short human-readable identifier such as "FP32".
	Name string
	// Bits is the total storage width in bits.
	Bits int
	// ExpBits is the number of exponent bits.
	ExpBits int
	// ManBits is the number of stored fraction bits (excluding the
	// implicit leading 1 of normal numbers).
	ManBits int
}

// Predefined formats. BF16 is bfloat16 (truncated FP32); the others are the
// IEEE 754 binary16/32 interchange formats.
var (
	FP16 = Format{Name: "FP16", Bits: 16, ExpBits: 5, ManBits: 10}
	BF16 = Format{Name: "BF16", Bits: 16, ExpBits: 8, ManBits: 7}
	FP32 = Format{Name: "FP32", Bits: 32, ExpBits: 8, ManBits: 23}
)

// ExpMask returns the biased-exponent field mask (right-aligned).
func (f Format) ExpMask() uint64 { return 1<<f.ExpBits - 1 }

// ManMask returns the fraction field mask (right-aligned).
func (f Format) ManMask() uint64 { return 1<<f.ManBits - 1 }

// Bytes returns the storage width in bytes.
func (f Format) Bytes() int { return f.Bits / 8 }

// String implements fmt.Stringer.
func (f Format) String() string {
	return fmt.Sprintf("%s(e%dm%d)", f.Name, f.ExpBits, f.ManBits)
}

// Split extracts (sign, biasedExp, fraction) from a packed value of this
// format, right-aligned in bits.
func (f Format) Split(bits uint64) (sign uint64, exp uint64, frac uint64) {
	sign = bits >> (f.Bits - 1) & 1
	exp = bits >> f.ManBits & f.ExpMask()
	frac = bits & f.ManMask()
	return sign, exp, frac
}

// Join packs (sign, biasedExp, fraction) into a value of this format.
// Out-of-range fields are masked to width.
func (f Format) Join(sign, exp, frac uint64) uint64 {
	return (sign&1)<<(f.Bits-1) | (exp&f.ExpMask())<<f.ManBits | frac&f.ManMask()
}
