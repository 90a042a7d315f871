package fpnum

import "math"

// Float16 is a packed IEEE 754 binary16 value.
type Float16 uint16

// F32ToF16 converts a float32 to binary16 with round-to-nearest-even,
// the rounding mode used by hardware FP16 conversion units.
func F32ToF16(x float32) Float16 {
	b := math.Float32bits(x)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xFF
	frac := b & 0x7FFFFF

	if exp == 0xFF { // Inf or NaN
		if frac != 0 {
			m := uint16(frac >> 13)
			if m == 0 {
				m = 1 // keep NaN a NaN after truncating the payload
			}
			return Float16(sign | 0x7C00 | m)
		}
		return Float16(sign | 0x7C00)
	}

	e := exp - 127 + 15
	if e >= 0x1F { // overflow to Inf
		return Float16(sign | 0x7C00)
	}
	if e <= 0 { // subnormal or zero in FP16
		if e < -10 {
			return Float16(sign) // underflows to zero even after rounding
		}
		m := frac | 0x800000 // make the implicit 1 explicit
		shift := uint32(14 - e)
		out := m >> shift
		rem := m & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && out&1 == 1) {
			out++ // a carry to 0x400 lands exactly on the smallest normal
		}
		return Float16(sign | uint16(out))
	}

	out := uint16(e)<<10 | uint16(frac>>13)
	rem := frac & 0x1FFF
	if rem > 0x1000 || (rem == 0x1000 && out&1 == 1) {
		out++ // mantissa carry may roll the exponent, including into Inf
	}
	return Float16(sign | out)
}

// F32ToF16Truncate converts a float32 to binary16 with round-toward-zero:
// excess fraction bits are dropped rather than rounded. Values beyond the
// FP16 range truncate to the largest finite magnitude (truncation never
// rounds up into Inf), and NaN payloads keep at least one set bit.
func F32ToF16Truncate(x float32) Float16 {
	b := math.Float32bits(x)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xFF
	frac := b & 0x7FFFFF

	if exp == 0xFF { // Inf or NaN
		if frac != 0 {
			m := uint16(frac >> 13)
			if m == 0 {
				m = 1 // keep NaN a NaN after truncating the payload
			}
			return Float16(sign | 0x7C00 | m)
		}
		return Float16(sign | 0x7C00)
	}

	e := exp - 127 + 15
	if e >= 0x1F { // too large: round toward zero stops at max finite
		return Float16(sign | 0x7BFF)
	}
	if e <= 0 { // subnormal or zero in FP16
		if e < -10 {
			return Float16(sign) // underflows to zero
		}
		m := frac | 0x800000 // make the implicit 1 explicit
		return Float16(sign | uint16(m>>uint32(14-e)))
	}
	return Float16(sign | uint16(e)<<10 | uint16(frac>>13))
}

// Float32 converts a binary16 value to float32 exactly (every FP16 value is
// representable in FP32).
func (h Float16) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	frac := uint32(h & 0x3FF)

	switch {
	case exp == 0x1F: // Inf or NaN
		if frac != 0 {
			return math.Float32frombits(sign | 0x7F800000 | 0x400000 | frac<<13)
		}
		return math.Float32frombits(sign | 0x7F800000)
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize into FP32's much wider exponent range.
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= 0x3FF
		return math.Float32frombits(sign | e<<23 | frac<<13)
	}
	return math.Float32frombits(sign | (exp+127-15)<<23 | frac<<13)
}

// IsNaN reports whether h encodes a NaN.
func (h Float16) IsNaN() bool { return h&0x7C00 == 0x7C00 && h&0x3FF != 0 }

// IsInf reports whether h encodes ±Inf.
func (h Float16) IsInf() bool { return h&0x7FFF == 0x7C00 }
