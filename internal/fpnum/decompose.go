package fpnum

import "math"

// Parts32 is the field-level decomposition of an FP32 value, the form the
// FPISA parser extracts into packet metadata (§3.2 "Extract").
type Parts32 struct {
	// Sign is 1 for negative values.
	Sign uint32
	// Exp is the biased 8-bit exponent field.
	Exp uint32
	// Frac is the 23-bit stored fraction (without the implicit 1).
	Frac uint32
}

// Decompose32 splits an FP32 value into its packed fields.
func Decompose32(x float32) Parts32 {
	b := math.Float32bits(x)
	return Parts32{Sign: b >> 31, Exp: b >> 23 & 0xFF, Frac: b & 0x7FFFFF}
}

// Compose32 reassembles packed fields into an FP32 value. Fields are masked
// to width.
func Compose32(p Parts32) float32 {
	return math.Float32frombits(p.Sign&1<<31 | p.Exp&0xFF<<23 | p.Frac&0x7FFFFF)
}

// ExplicitMantissa returns the 24-bit mantissa with the implicit leading 1
// expressed explicitly for normal numbers. For subnormals (Exp==0) the
// implicit bit is 0, matching hardware extract units.
func (p Parts32) ExplicitMantissa() uint32 {
	if p.Exp == 0 {
		return p.Frac
	}
	return p.Frac | 1<<23
}

// IsZero reports whether the decomposition encodes ±0.
func (p Parts32) IsZero() bool { return p.Exp == 0 && p.Frac == 0 }

// IsNaN reports whether the decomposition encodes a NaN.
func (p Parts32) IsNaN() bool { return p.Exp == 0xFF && p.Frac != 0 }

// IsInf reports whether the decomposition encodes ±Inf.
func (p Parts32) IsInf() bool { return p.Exp == 0xFF && p.Frac == 0 }

// IsSubnormal reports whether the decomposition encodes a subnormal.
func (p Parts32) IsSubnormal() bool { return p.Exp == 0 && p.Frac != 0 }
