package fpnum

import (
	"math"
	"testing"
)

func TestFormatConstantsValid(t *testing.T) {
	for _, f := range []Format{FP16, BF16, FP32} {
		if f.Bits != 1+f.ExpBits+f.ManBits || f.ExpBits < 2 || f.ManBits < 1 || f.Bits%8 != 0 {
			t.Errorf("%v: invalid format definition", f)
		}
	}
}

func TestFormatSplitJoinRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 0x3F800000, 0x80000000, 0x7F800001, 0xFFFFFFFF}
	for _, v := range values {
		s, e, m := FP32.Split(v)
		if got := FP32.Join(s, e, m); got != v&0xFFFFFFFF {
			t.Errorf("Join(Split(%#x)) = %#x", v, got)
		}
	}
}

func TestFormatSplitKnownValue(t *testing.T) {
	// 1.0f == 0x3F800000: sign 0, exp 127, frac 0.
	s, e, m := FP32.Split(uint64(math.Float32bits(1.0)))
	if s != 0 || e != 127 || m != 0 {
		t.Errorf("Split(1.0) = (%d,%d,%d), want (0,127,0)", s, e, m)
	}
	// -3.0f: sign 1, exp 128, frac 0x400000.
	s, e, m = FP32.Split(uint64(math.Float32bits(-3.0)))
	if s != 1 || e != 128 || m != 0x400000 {
		t.Errorf("Split(-3.0) = (%d,%d,%#x)", s, e, m)
	}
}

func TestFormatBytes(t *testing.T) {
	if FP16.Bytes() != 2 || BF16.Bytes() != 2 || FP32.Bytes() != 4 {
		t.Error("Bytes() wrong")
	}
}

func TestDecomposeCompose32RoundTrip(t *testing.T) {
	values := []float32{0, 1, -1, 0.5, -0.5, 3.0, 1e-38, 1e38, 1.5e-45,
		float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, v := range values {
		p := Decompose32(v)
		if got := Compose32(p); math.Float32bits(got) != math.Float32bits(v) {
			t.Errorf("Compose32(Decompose32(%g)) = %g", v, got)
		}
	}
}

func TestExplicitMantissa(t *testing.T) {
	// 1.0 has explicit mantissa 1<<23.
	if m := Decompose32(1.0).ExplicitMantissa(); m != 1<<23 {
		t.Errorf("ExplicitMantissa(1.0) = %#x, want %#x", m, 1<<23)
	}
	// 3.0 = 1.5 * 2^1 -> mantissa 0b11 << 22.
	if m := Decompose32(3.0).ExplicitMantissa(); m != 3<<22 {
		t.Errorf("ExplicitMantissa(3.0) = %#x, want %#x", m, 3<<22)
	}
	// Subnormals carry no implicit 1.
	sub := math.Float32frombits(1)
	if m := Decompose32(sub).ExplicitMantissa(); m != 1 {
		t.Errorf("ExplicitMantissa(subnormal) = %#x, want 1", m)
	}
}

func TestParts32Classifiers(t *testing.T) {
	if !Decompose32(0).IsZero() {
		t.Error("0 not classified as zero")
	}
	if !Decompose32(float32(math.NaN())).IsNaN() {
		t.Error("NaN not classified")
	}
	if !Decompose32(float32(math.Inf(-1))).IsInf() {
		t.Error("-Inf not classified")
	}
	if !Decompose32(math.Float32frombits(7)).IsSubnormal() {
		t.Error("subnormal not classified")
	}
	if Decompose32(1.5).IsZero() || Decompose32(1.5).IsNaN() || Decompose32(1.5).IsInf() {
		t.Error("1.5 misclassified")
	}
}
