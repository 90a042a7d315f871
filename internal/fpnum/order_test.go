package fpnum

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOrderedKey32Monotonic(t *testing.T) {
	vals := []float32{float32(math.Inf(-1)), -1e30, -3, -1, -0.5, -1e-40,
		float32(math.Copysign(0, -1)), 0, 1e-40, 0.5, 1, 3, 1e30, float32(math.Inf(1))}
	for i := 1; i < len(vals); i++ {
		if OrderedKey32(vals[i-1]) >= OrderedKey32(vals[i]) {
			t.Errorf("key(%g) >= key(%g)", vals[i-1], vals[i])
		}
	}
}

func TestOrderedKey32AgreesWithLess(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := math.Float32frombits(a), math.Float32frombits(b)
		if math.IsNaN(float64(x)) || math.IsNaN(float64(y)) {
			return true
		}
		if x == 0 && y == 0 {
			return true // ±0 ordering intentionally differs from ==
		}
		return (x < y) == (OrderedKey32(x) < OrderedKey32(y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50000}); err != nil {
		t.Error(err)
	}
}
