package core

import "math/bits"

// ReadBits renormalizes and assembles slot i into the configured wire
// format (paper §3.2 "Renormalize and Assemble"): convert the signed
// mantissa to sign+magnitude, locate the leading 1 (the switch does this
// with the Fig. 5 LPM table), shift it to the canonical position, adjust
// the exponent by the shift distance, round, and pack. The accumulator
// state is left untouched — the paper's delayed renormalization explicitly
// never stores the normalized value back (§3).
func (a *Accumulator) ReadBits(i int) uint32 {
	if a.flags[i]&flagInvalid != 0 {
		// Canonical quiet NaN.
		return a.expMask<<a.manBits | a.implied>>1
	}
	M := a.mans[i]
	if M == 0 {
		return 0 // +0
	}

	var sign uint32
	var u uint32
	if M < 0 {
		sign = 1 << a.signPos
		u = uint32(-int64(M)) // handles the -2^31 edge exactly
	} else {
		u = uint32(M)
	}

	p := 31 - bits.LeadingZeros32(u) // MSB position
	manBits := int(a.manBits)
	eOut := int(a.exps[i]) - int(a.guard) + (p - manBits)

	var mant uint32
	if shift := p - manBits; shift > 0 {
		mant = a.roundShift(u, shift)
		if mant == a.implied<<1 {
			// Rounding carried past the canonical width.
			mant >>= 1
			eOut++
		}
	} else {
		mant = u << uint(-shift)
	}

	switch {
	case eOut >= int(a.expMask):
		// Exponent overflow: saturate to ±Inf.
		a.stats.ReadOverflows++
		return sign | a.expMask<<a.manBits
	case eOut <= 0:
		// Gradual underflow into the denormal range (truncating; the
		// guard-bit rounding path does not extend below the format).
		a.stats.ReadUnderflows++
		extra := 1 - eOut
		if extra > manBits+1 {
			return sign // flushes to signed zero
		}
		return sign | mant>>uint(extra)&(a.implied-1)
	}
	return sign | uint32(eOut)<<a.manBits | mant&(a.implied-1)
}

// roundShift drops `shift` low bits of u per the configured rounding mode.
func (a *Accumulator) roundShift(u uint32, shift int) uint32 {
	if shift >= 32 {
		return 0
	}
	out := u >> uint(shift)
	if a.rne {
		dropped := u & (1<<uint(shift) - 1)
		half := uint32(1) << uint(shift-1)
		if dropped > half || (dropped == half && out&1 == 1) {
			out++
		}
	}
	return out
}

// ReadFloat32 reads slot i as a float32. For FP16/BF16 configurations the
// wire value is widened exactly.
func (a *Accumulator) ReadFloat32(i int) float32 {
	return a.cfg.Profile.DecodeValue(a.ReadBits(i))
}
