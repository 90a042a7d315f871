package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulExponentAddExactOnPowers(t *testing.T) {
	cases := []struct{ a, b, want float32 }{
		{2, 4, 8},
		{1.5, 2, 3},
		{-3, 5, -15},
		{0.25, 0.5, 0.125},
		{0, 5, 0},
		{1.25, -1.25, -1.5625},
	}
	for _, c := range cases {
		if got := MulExponentAdd(c.a, c.b); got != c.want {
			t.Errorf("Mul(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestMulExponentAddQuick(t *testing.T) {
	// Truncating renormalization: error within 2 ulp of the exact product.
	f := func(ab, bb uint32) bool {
		a := math.Float32frombits(ab&0x3FFFFFFF | 0x20000000) // confined to normal range
		b := math.Float32frombits(bb&0x3FFFFFFF | 0x20000000)
		got := float64(MulExponentAdd(a, b))
		want := float64(a) * float64(b)
		return math.Abs(got-want) <= math.Abs(want)*3e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestMulExponentAddSpecials(t *testing.T) {
	if !math.IsNaN(float64(MulExponentAdd(float32(math.Inf(1)), 2))) {
		t.Error("Inf input should produce NaN (out of in-switch domain)")
	}
	if got := MulExponentAdd(-2, 0); math.Float32bits(got) != 0x80000000 {
		t.Errorf("-2*0 = %#x, want -0", math.Float32bits(got))
	}
	big := math.Float32frombits(0x7F000000)
	if !math.IsInf(float64(MulExponentAdd(big, big)), 1) {
		t.Error("overflow should saturate to +Inf")
	}
	tiny := math.Float32frombits(0x00800000)
	if MulExponentAdd(tiny, tiny) != 0 {
		t.Error("underflow should flush to zero")
	}
}

func TestMulTable(t *testing.T) {
	mt, err := NewMulTable(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.table) != 65536 {
		t.Errorf("entries = %d", len(mt.table))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		a := float32(rng.Float64()*100 + 0.01)
		b := float32(rng.Float64()*100 + 0.01)
		got := float64(mt.Mul(a, b))
		want := float64(a) * float64(b)
		// Truncating both mantissas to 8 bits bounds relative error by
		// ~2^-7.
		if math.Abs(got-want) > math.Abs(want)*1.6e-2 {
			t.Fatalf("MulTable(%g,%g) = %g, want %g", a, b, got, want)
		}
	}
	if _, err := NewMulTable(9); err == nil {
		t.Error("oversized mul table accepted")
	}
}

func TestLog2TableErrorBudget(t *testing.T) {
	// Appendix A: fewer than 2000 entries, < 1% error.
	lt, err := NewLog2Table(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.table) >= 2000 {
		t.Errorf("log2 table has %d entries, paper budget < 2000", len(lt.table))
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		x := float32(math.Exp(rng.Float64()*20 - 10)) // 4.5e-5 .. 2.2e4
		got := float64(lt.Log2(x))
		want := math.Log2(float64(x))
		err := math.Abs(got - want)
		if math.Abs(want) > 0.5 {
			err /= math.Abs(want)
		}
		if err > 0.01 {
			t.Fatalf("Log2(%g) = %g, want %g (err %g)", x, got, want, err)
		}
	}
}

func TestSqrtTableErrorBudget(t *testing.T) {
	st, err := NewSqrtTable(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.table) > 2048 {
		t.Errorf("sqrt table has %d entries", len(st.table))
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		x := float32(math.Exp(rng.Float64()*40 - 20))
		got := float64(st.Sqrt(x))
		want := math.Sqrt(float64(x))
		if math.Abs(got-want) > want*0.01 {
			t.Fatalf("Sqrt(%g) = %g, want %g", x, got, want)
		}
	}
	// Exact-power sanity.
	if got := st.Sqrt(4); math.Abs(float64(got)-2) > 0.02 {
		t.Errorf("Sqrt(4) = %g", got)
	}
	// Odd exponents hit the second parity bank.
	if got := st.Sqrt(2); math.Abs(float64(got)-math.Sqrt2) > 0.02 {
		t.Errorf("Sqrt(2) = %g", got)
	}
	// Negative odd exponent.
	if got := st.Sqrt(0.5); math.Abs(float64(got)-math.Sqrt(0.5)) > 0.01 {
		t.Errorf("Sqrt(0.5) = %g", got)
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewLog2Table(2); err == nil {
		t.Error("log2 bits=2 accepted")
	}
	if _, err := NewLog2Table(12); err == nil {
		t.Error("log2 bits=12 accepted")
	}
	if _, err := NewSqrtTable(11); err == nil {
		t.Error("sqrt bits=11 accepted")
	}
	if _, err := NewMulTable(0); err == nil {
		t.Error("mul bits=0 accepted")
	}
}
