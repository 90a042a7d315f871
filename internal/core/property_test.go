package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// normalFloat maps arbitrary bits into the normal FP32 range used by the
// property tests (away from read-out saturation).
func normalFloat(bits uint32) float32 {
	exp := 90 + bits%70 // biased 90..159
	frac := bits & 0x7FFFFF
	sign := bits >> 31
	return math.Float32frombits(sign<<31 | exp<<23 | frac)
}

// TestPropertyFullModePerOpErrorBound: each full-FPISA addition loses at
// most one unit in the last place of the accumulator's scale (the
// round-toward--inf alignment truncation).
func TestPropertyFullModePerOpErrorBound(t *testing.T) {
	f := func(b1, b2 uint32) bool {
		a := MustNewAccumulator(DefaultFP32(ModeFull), 1)
		v1 := normalFloat(b1)
		v2 := normalFloat(b2)
		a.Add(0, v1)
		before := a.Value64(0)
		e, _ := a.RawState(0)
		a.Add(0, v2)
		if a.Overflowed(0) {
			return true
		}
		got := a.Value64(0)
		want := before + float64(v2)
		// One ulp at the larger of the two exponents involved.
		maxExp := int(e)
		if pe := int(math.Float32bits(v2) >> 23 & 0xFF); pe > maxExp {
			maxExp = pe
		}
		ulp := math.Ldexp(1, maxExp-127-23)
		return math.Abs(got-want) <= ulp*1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMonotonicPositiveAdds: in full mode, adding a positive value
// never decreases the accumulated value (truncation only eats into the
// amount being added, never below the prior sum).
func TestPropertyMonotonicPositiveAdds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustNewAccumulator(DefaultFP32(ModeFull), 1)
		prev := a.Value64(0)
		for i := 0; i < int(n%32)+1; i++ {
			v := normalFloat(rng.Uint32() & 0x7FFFFFFF) // positive
			a.Add(0, v)
			if a.Overflowed(0) {
				return true
			}
			cur := a.Value64(0)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyReadIsPureFunction: reading never perturbs subsequent
// arithmetic (delayed renormalization stores nothing back).
func TestPropertyReadIsPureFunction(t *testing.T) {
	f := func(b1, b2, b3 uint32) bool {
		mk := func() *Accumulator {
			a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
			a.AddBits(0, b1|0x10000000)
			a.AddBits(0, b2|0x10000000)
			return a
		}
		withReads := mk()
		for i := 0; i < 3; i++ {
			withReads.ReadBits(0)
		}
		withReads.AddBits(0, b3|0x10000000)
		noReads := mk()
		noReads.AddBits(0, b3|0x10000000)
		e1, m1 := withReads.RawState(0)
		e2, m2 := noReads.RawState(0)
		return e1 == e2 && m1 == m2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyApproxErrorBounded: FPISA-A's per-element error against the
// exact sum is bounded by the largest magnitude the element ever held —
// the §4.3 "bounded by the difference between headroom and mantissa width"
// guarantee, stated conservatively.
func TestPropertyApproxErrorBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
		var exact, maxMag float64
		for i := 0; i < 8; i++ {
			v := normalFloat(rng.Uint32())
			a.Add(0, v)
			exact += float64(v)
			if m := math.Abs(exact); m > maxMag {
				maxMag = m
			}
			if m := math.Abs(float64(v)); m > maxMag {
				maxMag = m
			}
		}
		if a.Overflowed(0) {
			return true
		}
		return math.Abs(a.Value64(0)-exact) <= maxMag*1.0000001+1e-30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyOrderIndependenceSameExponent: additions of same-exponent
// values are exact integer adds, hence order-independent bit for bit.
func TestPropertyOrderIndependenceSameExponent(t *testing.T) {
	f := func(fracs [6]uint32, perm uint32) bool {
		vals := make([]float32, len(fracs))
		for i, fr := range fracs {
			vals[i] = math.Float32frombits(120<<23 | fr&0x7FFFFF)
		}
		sum := func(order []int) uint32 {
			a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
			for _, i := range order {
				a.Add(0, vals[i])
			}
			return a.ReadBits(0)
		}
		fwd := []int{0, 1, 2, 3, 4, 5}
		rev := []int{5, 4, 3, 2, 1, 0}
		return sum(fwd) == sum(rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
