package fpnum

import (
	"math"
	"testing"
)

// lowPayloadNaN is a float32 NaN whose payload bits live entirely in the low
// 16 bits; naive truncation to bfloat16 yields the +Inf pattern 0x7F80.
var lowPayloadNaN = math.Float32frombits(0x7F800001)

func TestBF16TruncateNaNPreserved(t *testing.T) {
	cases := []struct {
		name string
		in   float32
	}{
		{"low-payload-quiet-bit-lost", lowPayloadNaN},
		{"negative-low-payload", math.Float32frombits(0xFF80_0001)},
		{"canonical-quiet", float32(math.NaN())},
		{"high-payload", math.Float32frombits(0x7FC1_0000)},
	}
	for _, tc := range cases {
		if got := F32ToBF16Truncate(tc.in); !bf16IsNaN(got) {
			t.Errorf("%s: F32ToBF16Truncate(%#08x) = %#04x, not a NaN",
				tc.name, math.Float32bits(tc.in), uint16(got))
		}
		// The RNE path must preserve NaN-ness for the same inputs.
		if got := F32ToBF16(tc.in); !bf16IsNaN(got) {
			t.Errorf("%s: F32ToBF16(%#08x) = %#04x, not a NaN",
				tc.name, math.Float32bits(tc.in), uint16(got))
		}
	}
}

func TestBF16TruncateInfStaysInf(t *testing.T) {
	// The NaN fix must not disturb genuine infinities.
	if got := F32ToBF16Truncate(float32(math.Inf(1))); got != 0x7F80 {
		t.Fatalf("+Inf truncated to %#04x, want 0x7F80", uint16(got))
	}
	if got := F32ToBF16Truncate(float32(math.Inf(-1))); got != 0xFF80 {
		t.Fatalf("-Inf truncated to %#04x, want 0xFF80", uint16(got))
	}
}

func TestBF16TruncateRoundsTowardZero(t *testing.T) {
	cases := []struct {
		in   float32
		want BFloat16
	}{
		{1.0, 0x3F80},
		// 1.0 + 2^-7 + 2^-8: RNE would round up, truncation drops the tail.
		{math.Float32frombits(0x3F81_8000), 0x3F81},
		{-math.Float32frombits(0x3F81_8000), 0xBF81},
		{0, 0x0000},
	}
	for _, tc := range cases {
		if got := F32ToBF16Truncate(tc.in); got != tc.want {
			t.Errorf("F32ToBF16Truncate(%v) = %#04x, want %#04x", tc.in, uint16(got), tc.want)
		}
	}
	// Confirm the divergence from RNE on the half-way-up case.
	if got := F32ToBF16(math.Float32frombits(0x3F81_8000)); got != 0x3F82 {
		t.Fatalf("F32ToBF16 half-way case = %#04x, want 0x3F82", uint16(got))
	}
}

func TestF16TruncateNaNPreserved(t *testing.T) {
	for _, in := range []float32{
		lowPayloadNaN,
		math.Float32frombits(0x7F80_1000), // payload only below bit 13
		float32(math.NaN()),
	} {
		if got := F32ToF16Truncate(in); !got.IsNaN() {
			t.Errorf("F32ToF16Truncate(%#08x) = %#04x, not a NaN", math.Float32bits(in), uint16(got))
		}
		if got := F32ToF16(in); !got.IsNaN() {
			t.Errorf("F32ToF16(%#08x) = %#04x, not a NaN", math.Float32bits(in), uint16(got))
		}
	}
}

func TestF16TruncateRoundsTowardZero(t *testing.T) {
	cases := []struct {
		in   float32
		want Float16
	}{
		{1.0, 0x3C00},
		// Exactly half-way between two FP16 values: RNE rounds to even,
		// truncation drops.
		{math.Float32frombits(0x3F80_1000), 0x3C00},
		{-math.Float32frombits(0x3F80_1000), 0xBC00},
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
		// Overflow truncates to max finite, never rounds up into Inf.
		{70000, 0x7BFF},
		{-70000, 0xFBFF},
		{0, 0x0000},
	}
	for _, tc := range cases {
		if got := F32ToF16Truncate(tc.in); got != tc.want {
			t.Errorf("F32ToF16Truncate(%v) = %#04x, want %#04x", tc.in, uint16(got), tc.want)
		}
	}
}

func TestF16TruncateExhaustiveAgainstRNE(t *testing.T) {
	// For every FP16 value v, truncating v.Float32() must be the identity,
	// and |truncate(x)| <= |RNE(x)| for representable magnitudes.
	for u := 0; u <= 0xFFFF; u++ {
		h := Float16(u)
		f := h.Float32()
		if h.IsNaN() {
			if !F32ToF16Truncate(f).IsNaN() {
				t.Fatalf("NaN %#04x lost through round trip", u)
			}
			continue
		}
		if got := F32ToF16Truncate(f); got != h {
			t.Fatalf("round trip %#04x -> %v -> %#04x", u, f, uint16(got))
		}
	}
}
