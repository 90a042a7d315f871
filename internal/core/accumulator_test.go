package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fpisa/internal/fpnum"
)

func TestConfigDefaults(t *testing.T) {
	c := DefaultFP32(ModeApprox)
	if err := c.Profile.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Profile.Headroom() != 7 {
		t.Errorf("FP32 headroom = %d, want 7 (paper §3.3)", c.Profile.Headroom())
	}
	p16 := NumericProfile{Format: FormatF16}
	if err := p16.Validate(); err != nil {
		t.Fatal(err)
	}
	if p16.Headroom() != 32-1-11 {
		t.Errorf("FP16 headroom = %d, want 20", p16.Headroom())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Profile: NumericProfile{Guard: 7}},                                          // no headroom left
		{Profile: NumericProfile{Format: FormatBF16, Guard: 255}},                    // guard bits past the register
		{Profile: NumericProfile{Rounding: RoundingRNE}},                             // RNE without guards
		{Profile: NumericProfile{Format: formatCount}, Mode: ModeApprox},             // unknown format
		{Profile: NumericProfile{Rounding: roundingCount, Guard: 2}, Mode: ModeFull}, // unknown rounding
	}
	for i, c := range bad {
		if _, err := NewAccumulator(c, 1); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	good := Config{Profile: NumericProfile{Guard: 2, Rounding: RoundingRNE}}
	if _, err := NewAccumulator(good, 1); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestPaperFig4Example walks the paper's running example: 3.0 + 1.0.
func TestPaperFig4Example(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeApprox} {
		a := MustNewAccumulator(DefaultFP32(mode), 1)
		if err := a.Add(0, 3.0); err != nil {
			t.Fatal(err)
		}
		e, m := a.RawState(0)
		if e != 128 || m != 0xC00000 {
			t.Fatalf("%v after 3.0: E=%d M=%#x, want E=128 M=0xC00000", mode, e, m)
		}
		if err := a.Add(0, 1.0); err != nil {
			t.Fatal(err)
		}
		// Step (4) of Fig. 4: denormalized 0b10.0 × 2^1 — mantissa 2^24
		// with unchanged exponent.
		e, m = a.RawState(0)
		if e != 128 || m != 0x1000000 {
			t.Fatalf("%v after +1.0: E=%d M=%#x, want E=128 M=0x1000000", mode, e, m)
		}
		// Renormalized read: 4.0, i.e. exponent incremented by the LPM
		// match (steps 5-6).
		if got := a.ReadFloat32(0); got != 4.0 {
			t.Errorf("%v read = %g, want 4.0", mode, got)
		}
		// Delayed renormalization never writes back.
		if e2, m2 := a.RawState(0); e2 != 128 || m2 != 0x1000000 {
			t.Errorf("%v read mutated state: E=%d M=%#x", mode, e2, m2)
		}
	}
}

func TestSingleValueRoundTrip(t *testing.T) {
	values := []float32{1, -1, 0.5, 3.0, -3.75, 1e-38, 1e38, 65504,
		math.Float32frombits(1),          // smallest subnormal
		math.Float32frombits(0x007FFFFF), // largest subnormal
		math.Float32frombits(0x00800000), // smallest normal
	}
	for _, mode := range []Mode{ModeFull, ModeApprox} {
		a := MustNewAccumulator(DefaultFP32(mode), 1)
		for _, v := range values {
			a.Reset(0)
			if err := a.Add(0, v); err != nil {
				t.Fatal(err)
			}
			if got := a.ReadFloat32(0); math.Float32bits(got) != math.Float32bits(v) {
				t.Errorf("%v: round trip %g -> %g", mode, v, got)
			}
		}
	}
}

func TestSingleValueRoundTripQuick(t *testing.T) {
	accFull := MustNewAccumulator(DefaultFP32(ModeFull), 1)
	accA := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	f := func(b uint32) bool {
		x := math.Float32frombits(b)
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		for _, a := range []*Accumulator{accFull, accA} {
			a.Reset(0)
			if err := a.AddBits(0, b); err != nil {
				return false
			}
			got := a.ReadBits(0)
			if x == 0 {
				if got != 0 { // ±0 both read back as +0
					return false
				}
				continue
			}
			if got != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30000}); err != nil {
		t.Error(err)
	}
}

func TestZeroHandling(t *testing.T) {
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	if got := a.ReadFloat32(0); got != 0 {
		t.Errorf("empty slot = %g", got)
	}
	a.Add(0, 0)
	a.Add(0, float32(math.Copysign(0, -1)))
	if got := a.ReadFloat32(0); got != 0 {
		t.Errorf("sum of zeros = %g", got)
	}
	a.Add(0, 5)
	a.Add(0, 0)
	if got := a.ReadFloat32(0); got != 5 {
		t.Errorf("5+0 = %g", got)
	}
}

func TestCancellationToZero(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeApprox} {
		a := MustNewAccumulator(DefaultFP32(mode), 1)
		a.Add(0, 7.25)
		a.Add(0, -7.25)
		if got := a.ReadFloat32(0); got != 0 {
			t.Errorf("%v: 7.25-7.25 = %g", mode, got)
		}
	}
}

func TestNegativeSums(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeApprox} {
		a := MustNewAccumulator(DefaultFP32(mode), 1)
		a.Add(0, -1.5)
		a.Add(0, -2.5)
		if got := a.ReadFloat32(0); got != -4.0 {
			t.Errorf("%v: -1.5-2.5 = %g", mode, got)
		}
	}
}

func TestRoundTowardNegInfSemantics(t *testing.T) {
	// Alignment right-shifts on two's complement round toward -inf
	// (Appendix A.1): -1 + (-2^-24) pulls the sum *down* one ulp, where
	// IEEE RNE would return exactly -1.
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	a.Add(0, -1)
	a.Add(0, -math.Float32frombits(0x33800000)) // 2^-24
	want := math.Float32frombits(0xBF800001)    // -(1 + 2^-23)
	if got := a.ReadFloat32(0); got != want {
		t.Errorf("got %g (%#x), want %g", got, math.Float32bits(got), want)
	}
	// The positive mirror truncates toward zero, i.e. also toward -inf.
	a.Reset(0)
	a.Add(0, 1)
	a.Add(0, math.Float32frombits(0x33800000))
	if got := a.ReadFloat32(0); got != 1.0 {
		t.Errorf("positive: got %g, want 1.0", got)
	}
}

func TestOverwriteErrorApprox(t *testing.T) {
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	a.Add(0, 1.0)
	a.Add(0, 1024.0) // d = 10 > headroom 7 -> overwrite, 1.0 discarded
	if got := a.ReadFloat32(0); got != 1024.0 {
		t.Errorf("overwrite result = %g, want 1024", got)
	}
	s := a.Stats()
	if s.OverwriteDiscards != 1 {
		t.Errorf("OverwriteDiscards = %d, want 1", s.OverwriteDiscards)
	}
	// Full FPISA computes the same sum exactly.
	f := MustNewAccumulator(DefaultFP32(ModeFull), 1)
	f.Add(0, 1.0)
	f.Add(0, 1024.0)
	if got := f.ReadFloat32(0); got != 1025.0 {
		t.Errorf("full-mode result = %g, want 1025", got)
	}
	if f.Stats().OverwritePath != 0 {
		t.Error("full mode took an overwrite path")
	}
}

func TestLeftShiftPathApprox(t *testing.T) {
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	a.Add(0, 1.0)
	a.Add(0, 64.0) // d = 6 <= 7: left-shift path, exact
	if got := a.ReadFloat32(0); got != 65.0 {
		t.Errorf("1+64 = %g", got)
	}
	s := a.Stats()
	if s.LeftShiftPath != 1 {
		t.Errorf("LeftShiftPath = %d, want 1", s.LeftShiftPath)
	}
	if s.LeftShiftOverflows != 0 {
		t.Errorf("LeftShiftOverflows = %d, want 0 (no overflow here)", s.LeftShiftOverflows)
	}
}

func TestLeftShiftOverflowCounted(t *testing.T) {
	// Drive the accumulator near the register limit with same-exponent
	// adds, then overflow it via a left-shift-path add.
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	big := math.Float32frombits(0x3FFFFFFF) // mantissa all ones, exp 127
	for i := 0; i < 120; i++ {
		a.Add(0, big) // right path after the first; M approaches 2^31
	}
	if a.Overflowed(0) {
		t.Fatal("premature overflow")
	}
	a.Add(0, big*64) // d=6 left shift of a full mantissa overflows
	if !a.Overflowed(0) {
		t.Fatal("left-shift add did not overflow")
	}
	if a.Stats().LeftShiftOverflows != 1 {
		t.Errorf("LeftShiftOverflows = %d, want 1", a.Stats().LeftShiftOverflows)
	}
}

func TestHeadroomOverflowBound(t *testing.T) {
	// §3.3: 7 headroom bits absorb 128 additions of maximum-mantissa
	// same-exponent values; the 129th overflows.
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	maxMant := math.Float32frombits(0x3FFFFFFF) // 1.9999999 (mantissa all ones)
	for k := 0; k < 128; k++ {
		a.Add(0, maxMant)
		if a.Overflowed(0) {
			t.Fatalf("overflow after %d adds, want none through 128", k+1)
		}
	}
	a.Add(0, maxMant)
	if !a.Overflowed(0) {
		t.Error("no overflow after 129 max-mantissa adds")
	}
	if a.Stats().Overflows == 0 {
		t.Error("overflow not counted")
	}
}

func TestSpecialInputsMarkInvalid(t *testing.T) {
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	a.Add(0, 2.0)
	a.Add(0, float32(math.NaN()))
	if !a.Invalid(0) {
		t.Fatal("NaN input did not mark slot invalid")
	}
	if got := a.ReadFloat32(0); !math.IsNaN(float64(got)) {
		t.Errorf("invalid slot read %g, want NaN", got)
	}
	b := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	b.Add(0, float32(math.Inf(1)))
	if !b.Invalid(0) || b.Stats().SpecialInputs != 1 {
		t.Error("Inf input not flagged")
	}
}

func TestFullModeMatchesExactWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a := MustNewAccumulator(DefaultFP32(ModeFull), 1)
		n := 100
		var exact float64
		for i := 0; i < n; i++ {
			v := float32(rng.NormFloat64())
			a.Add(0, v)
			exact += float64(v)
		}
		got := a.Value64(0)
		// Each add can lose < one ulp of the running sum (round toward
		// -inf); bound by n ulps at the max magnitude seen.
		bound := float64(n) * math.Abs(exact+1) * math.Pow(2, -20)
		if math.Abs(got-exact) > bound+1e-6 {
			t.Fatalf("trial %d: full-mode %g vs exact %g (err %g > %g)",
				trial, got, exact, math.Abs(got-exact), bound)
		}
	}
}

func TestApproxTracksFullOnNarrowRangeData(t *testing.T) {
	// Gradient-like data (§5.1): magnitudes within a 2^7 band — FPISA-A
	// should agree closely with full FPISA.
	rng := rand.New(rand.NewSource(7))
	af := MustNewAccumulator(DefaultFP32(ModeFull), 1)
	aa := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	for i := 0; i < 64; i++ {
		v := float32((rng.Float64() + 0.01) * 0.01) // ~[1e-4, 1e-2]
		if rng.Intn(2) == 0 {
			v = -v
		}
		af.Add(0, v)
		aa.Add(0, v)
	}
	fullV, apxV := af.Value64(0), aa.Value64(0)
	if math.Abs(fullV-apxV) > 1e-6*math.Max(math.Abs(fullV), 1e-3) {
		t.Errorf("approx %g diverges from full %g", apxV, fullV)
	}
	if aa.Stats().OverwriteDiscards != 0 {
		t.Errorf("narrow-range data caused %d overwrites", aa.Stats().OverwriteDiscards)
	}
}

func TestGuardBitsRounding(t *testing.T) {
	// With 3 guard bits and RNE, 1.0 + 1.5*2^-24 rounds up to 1+2^-23;
	// truncation leaves 1.0.
	rne := Config{Profile: NumericProfile{Guard: 3, Rounding: RoundingRNE}, Mode: ModeApprox}
	trunc := rne
	trunc.Profile.Rounding = RoundingTruncate

	small := math.Float32frombits(0x33C00000) // 1.5 * 2^-24
	up := math.Float32frombits(0x3F800001)    // 1 + 2^-23

	a := MustNewAccumulator(rne, 1)
	a.Add(0, 1.0)
	a.Add(0, small)
	if got := a.ReadFloat32(0); got != up {
		t.Errorf("RNE: got %g (%#x), want %g", got, math.Float32bits(got), up)
	}

	b := MustNewAccumulator(trunc, 1)
	b.Add(0, 1.0)
	b.Add(0, small)
	if got := b.ReadFloat32(0); got != 1.0 {
		t.Errorf("truncate: got %g, want 1.0", got)
	}
}

func TestFP16Accumulation(t *testing.T) {
	a := MustNewAccumulator(Config{Profile: NumericProfile{Format: FormatF16}, Mode: ModeApprox}, 1)
	a.Add(0, 1.5)
	a.Add(0, 2.25)
	if got := a.ReadFloat32(0); got != 3.75 {
		t.Errorf("FP16 1.5+2.25 = %g", got)
	}
	// FP16 round trip of all finite values through a reset slot.
	for i := 0; i <= 0xFFFF; i++ {
		h := fpnum.Float16(i)
		if h.IsNaN() || h.IsInf() {
			continue
		}
		a.Reset(0)
		if err := a.AddBits(0, uint32(i)); err != nil {
			t.Fatal(err)
		}
		got := a.ReadBits(0)
		if h.Float32() == 0 {
			if got != 0 {
				t.Fatalf("FP16 zero %#x read %#x", i, got)
			}
			continue
		}
		if got != uint32(i) {
			t.Fatalf("FP16 round trip %#04x -> %#04x", i, got)
		}
	}
}

func TestReadResetAndMultiSlot(t *testing.T) {
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 4)
	a.Add(2, 10)
	a.Add(2, 20)
	a.Add(3, -1)
	if got := math.Float32frombits(a.ReadResetBits(2)); got != 30 {
		t.Errorf("slot 2 = %g", got)
	}
	if got := a.ReadFloat32(2); got != 0 {
		t.Errorf("slot 2 after reset = %g", got)
	}
	if got := a.ReadFloat32(3); got != -1 {
		t.Errorf("slot 3 = %g", got)
	}
	if err := a.Add(4, 1); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := a.Add(-1, 1); err == nil {
		t.Error("negative slot accepted")
	}
}

func TestReadSaturationToInfinity(t *testing.T) {
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	big := math.Float32frombits(0x7F7FFFFF) // max finite
	for i := 0; i < 3; i++ {
		a.Add(0, big)
	}
	if got := a.ReadFloat32(0); !math.IsInf(float64(got), 1) {
		t.Errorf("3*maxfloat = %g, want +Inf", got)
	}
	if a.Stats().ReadOverflows == 0 {
		t.Error("read overflow not counted")
	}
}

func TestValue64MatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	for trial := 0; trial < 2000; trial++ {
		a.Reset(0)
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			a.Add(0, float32(rng.NormFloat64()))
		}
		v64 := a.Value64(0)
		read := float64(a.ReadFloat32(0))
		// Read rounds to FP32; Value64 is exact — they must agree to an
		// FP32 ulp of the value.
		if v64 == 0 && read == 0 {
			continue
		}
		if math.Abs(read-v64) > math.Abs(v64)*1.2e-7+1e-45 {
			t.Fatalf("Value64 %g vs Read %g", v64, read)
		}
	}
}

func TestStatsPathAccounting(t *testing.T) {
	a := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	a.Add(0, 1.0)    // overwrite path (empty slot)
	a.Add(0, 0.5)    // right path
	a.Add(0, 4.0)    // left path (d=2)
	a.Add(0, 1024.0) // overwrite path (d=10)
	s := a.Stats()
	if s.Adds != 4 || s.RightShiftPath != 1 || s.LeftShiftPath != 1 || s.OverwritePath != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.OverwriteDiscards != 1 {
		t.Errorf("OverwriteDiscards = %d, want 1 (first overwrite hit an empty slot)", s.OverwriteDiscards)
	}
}

func TestAccumulatorErrors(t *testing.T) {
	if _, err := NewAccumulator(DefaultFP32(ModeApprox), 0); err == nil {
		t.Error("zero-size accumulator accepted")
	}
	bad := DefaultFP32(ModeApprox)
	bad.Profile.Guard = 7
	if _, err := NewAccumulator(bad, 4); err == nil {
		t.Error("invalid config accepted")
	}
}
