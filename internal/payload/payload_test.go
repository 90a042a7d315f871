package payload

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSwapBytesInvolution(t *testing.T) {
	f := func(buf []byte) bool {
		for _, swap := range []func([]byte){SwapBytes16, SwapBytes32, SwapBytes64} {
			cp := append([]byte(nil), buf...)
			swap(cp)
			swap(cp)
			if !bytes.Equal(cp, buf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSwapBytes32Known(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	SwapBytes32(buf)
	want := []byte{4, 3, 2, 1, 8, 7, 6, 5}
	if !bytes.Equal(buf, want) {
		t.Errorf("got %v, want %v", buf, want)
	}
	// Trailing partial element untouched.
	buf2 := []byte{1, 2, 3, 4, 9}
	SwapBytes32(buf2)
	if buf2[4] != 9 {
		t.Error("partial tail modified")
	}
}

func TestSwapBytes16Known(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	SwapBytes16(buf)
	if !bytes.Equal(buf, []byte{2, 1, 4, 3}) {
		t.Errorf("got %v", buf)
	}
}

func TestSwapBytes64Known(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	SwapBytes64(buf)
	if !bytes.Equal(buf, []byte{8, 7, 6, 5, 4, 3, 2, 1}) {
		t.Errorf("got %v", buf)
	}
}

func TestDesiredRates(t *testing.T) {
	// Fig. 6: 100 Gbps requires 6.25 G/s FP16, 3.125 G/s FP32,
	// 1.5625 G/s FP64 conversions.
	cases := []struct {
		bytes int
		want  float64
	}{
		{2, 6.25e9}, {4, 3.125e9}, {8, 1.5625e9},
	}
	for _, c := range cases {
		if got := DesiredRatePerSec(100, c.bytes); math.Abs(got-c.want) > 1 {
			t.Errorf("DesiredRate(%dB) = %g, want %g", c.bytes, got, c.want)
		}
	}
}

func TestCoresForLineRate(t *testing.T) {
	// Paper: "to reach 100 Gbps for FP16, one will need at least 11
	// cores" at the measured single-core rate (~0.58 G/s).
	if got := CoresForLineRate(100, 2, 0.58e9); got != 11 {
		t.Errorf("cores = %d, want 11", got)
	}
	if CoresForLineRate(100, 4, 0) != 0 {
		t.Error("zero rate should yield 0")
	}
}

func TestScaleExpNoOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		workers := 1 + rng.Intn(32)
		block := make([]float32, 64)
		for i := range block {
			block[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3)))
		}
		maxExp := MaxBiasedExp(block)
		s := ScaleExpFor(maxExp, workers)
		// Sum `workers` copies of the largest-magnitude quantized values;
		// must not overflow int64->int32 range.
		q := quantize(t, block, s)
		var sum int64
		var maxAbs int64
		for _, v := range q {
			if a := int64(v); a > maxAbs {
				maxAbs = a
			} else if -a > maxAbs {
				maxAbs = -a
			}
		}
		sum = maxAbs * int64(workers)
		if sum > math.MaxInt32 {
			t.Fatalf("workers=%d maxExp=%d scale=%d: worst-case sum %d overflows", workers, maxExp, s, sum)
		}
	}
}

func TestQuantizeRoundTripPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := make([]float32, 256)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	s := ScaleExpFor(MaxBiasedExp(src), 8)
	wire := make([]byte, 4*len(src))
	back := make([]float32, len(src))
	if err := QuantizeToWire(wire, src, s); err != nil {
		t.Fatal(err)
	}
	if err := DequantizeFromWire(back, wire, s); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if math.Abs(float64(back[i]-src[i])) > math.Ldexp(1, -s) {
			t.Fatalf("elem %d: %g -> %g (scale 2^%d)", i, src[i], back[i], s)
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	q := quantize(t, []float32{1e30, -1e30}, 10)
	if q[0] != math.MaxInt32 || q[1] != math.MinInt32 {
		t.Errorf("saturation: %v", q)
	}
}

func TestLengthValidation(t *testing.T) {
	if err := QuantizeToWire(make([]byte, 8), make([]float32, 3), 0); err == nil {
		t.Error("short wire accepted")
	}
	if err := DequantizeFromWire(make([]float32, 3), make([]byte, 8), 0); err == nil {
		t.Error("short wire accepted")
	}
	if err := CopyWire(make([]byte, 4), make([]float32, 2)); err == nil {
		t.Error("short wire accepted")
	}
}

func TestWireRoundTrips(t *testing.T) {
	src := []float32{1.5, -2.25, 0, 3.14159}
	wire := make([]byte, 16)
	dst := make([]float32, 4)

	// Quantized wire round trip.
	s := ScaleExpFor(MaxBiasedExp(src), 2)
	if err := QuantizeToWire(wire, src, s); err != nil {
		t.Fatal(err)
	}
	if err := DequantizeFromWire(dst, wire, s); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if math.Abs(float64(dst[i]-src[i])) > math.Ldexp(1, -s) {
			t.Errorf("quantized elem %d: %g vs %g", i, dst[i], src[i])
		}
	}

	// CopyWire stores little-endian.
	if err := CopyWire(wire, src[:1]); err != nil {
		t.Fatal(err)
	}
	if math.Float32frombits(uint32(wire[0])|uint32(wire[1])<<8|uint32(wire[2])<<16|uint32(wire[3])<<24) != 1.5 {
		t.Error("CopyWire not little-endian")
	}
}

// quantize runs QuantizeToWire and reads the fixed-point values back off
// the wire.
func quantize(t *testing.T, src []float32, scaleExp int) []int32 {
	t.Helper()
	wire := make([]byte, 4*len(src))
	if err := QuantizeToWire(wire, src, scaleExp); err != nil {
		t.Fatal(err)
	}
	q := make([]int32, len(src))
	for i := range q {
		q[i] = int32(binary.BigEndian.Uint32(wire[4*i:]))
	}
	return q
}
