package fpnum

import "testing"

func TestSumsEmptyAndSingle(t *testing.T) {
	if Sum64of32(nil) != 0 {
		t.Error("Sum64of32 of nothing not zero")
	}
	if Sum64of32([]float32{42}) != 42 {
		t.Error("Sum64of32 single wrong")
	}
}

func TestSum64of32MatchesIntegerSums(t *testing.T) {
	xs := make([]float32, 1000)
	var want float64
	for i := range xs {
		xs[i] = float32(i)
		want += float64(i)
	}
	if got := Sum64of32(xs); got != want {
		t.Errorf("Sum64of32 = %g, want %g", got, want)
	}
}

func TestSumsNegativeCancellation(t *testing.T) {
	xs := []float32{5, -5, 3, -3, 1.5, -1.5}
	if got := Sum64of32(xs); got != 0 {
		t.Errorf("Sum64of32 = %g, want 0", got)
	}
}
