package fpnum

import "math"

// BFloat16 is a packed bfloat16 (brain floating point) value: the top 16
// bits of an FP32, giving FP32's exponent range with a 7-bit fraction.
type BFloat16 uint16

// F32ToBF16 converts a float32 to bfloat16 with round-to-nearest-even.
func F32ToBF16(x float32) BFloat16 {
	b := math.Float32bits(x)
	if b&0x7F800000 == 0x7F800000 && b&0x7FFFFF != 0 {
		// NaN: truncate payload but keep it a NaN.
		out := uint16(b >> 16)
		if out&0x7F == 0 {
			out |= 1
		}
		return BFloat16(out)
	}
	// Round to nearest even on bit 15.
	lsb := b >> 16 & 1
	rounded := (b + 0x7FFF + lsb) >> 16
	return BFloat16(rounded)
}

// F32ToBF16Truncate converts with simple truncation (round toward zero),
// the cheap conversion some accelerators use. Like F32ToBF16 it must keep a
// NaN a NaN: a payload living only in the low 16 bits would otherwise
// truncate to the +Inf pattern 0x7F80.
func F32ToBF16Truncate(x float32) BFloat16 {
	b := math.Float32bits(x)
	out := uint16(b >> 16)
	if b&0x7F800000 == 0x7F800000 && b&0x7FFFFF != 0 && out&0x7F == 0 {
		out |= 1
	}
	return BFloat16(out)
}

// Float32 converts a bfloat16 to float32 exactly.
func (b BFloat16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}
