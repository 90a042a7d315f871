package fpnum

import (
	"math"
	"testing"
	"testing/quick"
)

func TestF16KnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},                  // largest finite FP16
		{5.9604644775390625e-08, 0x0001}, // smallest positive subnormal
		{6.103515625e-05, 0x0400},        // smallest positive normal
		{float32(math.Inf(1)), 0x7C00},   // +Inf
		{float32(math.Inf(-1)), 0xFC00},  // -Inf
		{1.0009765625, 0x3C01},           // 1 + 2^-10
		{-0.0, 0x0000},                   // literal -0.0 is +0.0 in Go constants
		{float32(math.Copysign(0, -1)), 0x8000},
	}
	for _, c := range cases {
		if got := F32ToF16(c.f); uint16(got) != c.bits {
			t.Errorf("F32ToF16(%g) = %#04x, want %#04x", c.f, uint16(got), c.bits)
		}
	}
}

func TestF16Overflow(t *testing.T) {
	if got := F32ToF16(65520); uint16(got) != 0x7C00 {
		t.Errorf("F32ToF16(65520) = %#04x, want +Inf (RNE rounds up past max)", uint16(got))
	}
	if got := F32ToF16(1e9); !got.IsInf() {
		t.Errorf("F32ToF16(1e9) = %#04x, want Inf", uint16(got))
	}
	if got := F32ToF16(-1e9); uint16(got) != 0xFC00 {
		t.Errorf("F32ToF16(-1e9) = %#04x, want -Inf", uint16(got))
	}
}

func TestF16Underflow(t *testing.T) {
	if got := F32ToF16(1e-10); uint16(got) != 0 {
		t.Errorf("F32ToF16(1e-10) = %#04x, want +0", uint16(got))
	}
	if got := F32ToF16(-1e-10); uint16(got) != 0x8000 {
		t.Errorf("F32ToF16(-1e-10) = %#04x, want -0", uint16(got))
	}
}

func TestF16NaN(t *testing.T) {
	h := F32ToF16(float32(math.NaN()))
	if !h.IsNaN() {
		t.Fatalf("F32ToF16(NaN) = %#04x, not NaN", uint16(h))
	}
	back := h.Float32()
	if !math.IsNaN(float64(back)) {
		t.Errorf("NaN did not round-trip: %g", back)
	}
}

func TestF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10 → ties to even (1).
	halfway := math.Float32frombits(0x3F800000 | 1<<12)
	if got := F32ToF16(halfway); uint16(got) != 0x3C00 {
		t.Errorf("halfway tie = %#04x, want 0x3C00 (round to even)", uint16(got))
	}
	// (1+2^-10) + 2^-11 is halfway with odd low bit → rounds up to 1+2^-9.
	halfwayOdd := math.Float32frombits(0x3F800000 | 1<<13 | 1<<12)
	if got := F32ToF16(halfwayOdd); uint16(got) != 0x3C02 {
		t.Errorf("odd halfway tie = %#04x, want 0x3C02", uint16(got))
	}
	// Just above halfway always rounds up.
	above := math.Float32frombits(0x3F800000 | 1<<12 | 1)
	if got := F32ToF16(above); uint16(got) != 0x3C01 {
		t.Errorf("above halfway = %#04x, want 0x3C01", uint16(got))
	}
}

func TestF16SubnormalRounding(t *testing.T) {
	// Half of the smallest subnormal ties to even → 0.
	halfSub := Float16(0x0001).Float32() / 2
	if got := F32ToF16(halfSub); uint16(got) != 0 {
		t.Errorf("half smallest subnormal = %#04x, want 0", uint16(got))
	}
	// 0.75 of the smallest subnormal rounds up to it.
	if got := F32ToF16(Float16(0x0001).Float32() * 0.75); uint16(got) != 1 {
		t.Errorf("0.75*min subnormal = %#04x, want 1", uint16(got))
	}
	// Rounding can carry a subnormal into the smallest normal.
	almostNormal := Float16(0x03FF).Float32() * 1.001
	if got := F32ToF16(almostNormal); uint16(got) != 0x0400 {
		t.Errorf("subnormal carry = %#04x, want 0x0400", uint16(got))
	}
}

// TestF16ExhaustiveRoundTrip converts every one of the 65536 FP16 bit
// patterns to FP32 and back, requiring bit-identical results (modulo NaN
// payload normalization).
func TestF16ExhaustiveRoundTrip(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		h := Float16(i)
		f := h.Float32()
		back := F32ToF16(f)
		if h.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("NaN %#04x round-tripped to non-NaN %#04x", i, uint16(back))
			}
			continue
		}
		if back != h {
			t.Fatalf("round trip failed: %#04x -> %g -> %#04x", i, f, uint16(back))
		}
	}
}

// TestF16ConversionMonotonic verifies that the conversion preserves ordering,
// which the in-switch comparison relies on when FP16 data flows through.
func TestF16ConversionMonotonic(t *testing.T) {
	prev := Float16(0xFBFF).Float32()  // most negative finite
	for i := 0x0400; i < 0x7C00; i++ { // positive normals ascending
		cur := Float16(i).Float32()
		if cur <= prev && i != 0x0400 {
			t.Fatalf("FP16->FP32 not monotonic at %#04x", i)
		}
		prev = cur
	}
}

func TestF16QuickRoundTripThroughF32(t *testing.T) {
	// For arbitrary float32 inputs, converting to FP16 and back must yield a
	// value within half an FP16 ulp of the original (when in range).
	f := func(bits uint32) bool {
		x := math.Float32frombits(bits)
		if math.IsNaN(float64(x)) || math.Abs(float64(x)) > 65504 {
			return true
		}
		y := F32ToF16(x).Float32()
		if x == 0 {
			return y == 0
		}
		diff := math.Abs(float64(y) - float64(x))
		ulp := math.Abs(float64(x)) / 1024 // 2^-10 relative
		return diff <= ulp/2*1.0000001 || diff <= 5.96046448e-08/2*1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestBF16KnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3F80},
		{-2, 0xC000},
		{float32(math.Inf(1)), 0x7F80},
	}
	for _, c := range cases {
		if got := F32ToBF16(c.f); uint16(got) != c.bits {
			t.Errorf("F32ToBF16(%g) = %#04x, want %#04x", c.f, uint16(got), c.bits)
		}
	}
}

func TestBF16Rounding(t *testing.T) {
	// 1 + 2^-8 is halfway between 1 and 1+2^-7: ties to even → 1.
	halfway := math.Float32frombits(0x3F800000 | 1<<15)
	if got := F32ToBF16(halfway); uint16(got) != 0x3F80 {
		t.Errorf("bf16 tie = %#04x, want 0x3F80", uint16(got))
	}
	above := math.Float32frombits(0x3F800000 | 1<<15 | 1)
	if got := F32ToBF16(above); uint16(got) != 0x3F81 {
		t.Errorf("bf16 above-tie = %#04x, want 0x3F81", uint16(got))
	}
	if got := F32ToBF16Truncate(above); uint16(got) != 0x3F80 {
		t.Errorf("bf16 truncate = %#04x, want 0x3F80", uint16(got))
	}
}

// bf16IsNaN reports whether b encodes a NaN: all-ones exponent, nonzero
// mantissa.
func bf16IsNaN(b BFloat16) bool { return b&0x7F80 == 0x7F80 && b&0x7F != 0 }

func TestBF16NaNPreserved(t *testing.T) {
	if !bf16IsNaN(F32ToBF16(float32(math.NaN()))) {
		t.Error("NaN lost in bf16 conversion")
	}
	// A NaN whose payload lives entirely in the low 16 bits must stay NaN.
	sneaky := math.Float32frombits(0x7F800000 | 1)
	if !bf16IsNaN(F32ToBF16(sneaky)) {
		t.Error("low-payload NaN became Inf in bf16 conversion")
	}
}

func TestBF16ExhaustiveRoundTrip(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		b := BFloat16(i)
		f := b.Float32()
		back := F32ToBF16(f)
		if bf16IsNaN(b) {
			if !bf16IsNaN(back) {
				t.Fatalf("bf16 NaN %#04x lost", i)
			}
			continue
		}
		if back != b {
			t.Fatalf("bf16 round trip failed: %#04x -> %g -> %#04x", i, f, uint16(back))
		}
	}
}
