package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestLogHistogramBinning(t *testing.T) {
	h := MustNewLogHistogram(2, 0, 8)
	h.Observe(1)   // [2^0,2^1)
	h.Observe(1.5) // [2^0,2^1)
	h.Observe(4)   // [2^2,2^3)
	h.Observe(0)   // zero bucket
	h.Observe(0.1) // underflow
	h.Observe(512) // overflow

	bins := h.Bins()
	if bins[0].Count != 2 {
		t.Errorf("bin 2^0 count = %d, want 2", bins[0].Count)
	}
	if bins[2].Count != 1 {
		t.Errorf("bin 2^2 count = %d", bins[2].Count)
	}
	if h.Zeros() != 1 || h.Total() != 6 {
		t.Errorf("zeros=%d total=%d", h.Zeros(), h.Total())
	}
	if f := bins[0].Frequency; math.Abs(f-2.0/6) > 1e-12 {
		t.Errorf("frequency = %g", f)
	}
}

func TestLogHistogramBase10(t *testing.T) {
	h := MustNewLogHistogram(10, -20, 1)
	h.Observe(1e-9)
	h.Observe(5e-9)
	h.Observe(1e-15)
	if got := h.FractionBetween(-10, -8); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("FractionBetween = %g", got)
	}
}

func TestFractionBelow(t *testing.T) {
	h := MustNewLogHistogram(2, 0, 20)
	for i := 0; i < 83; i++ {
		h.Observe(3) // 2^1..2^2
	}
	for i := 0; i < 17; i++ {
		h.Observe(1000) // 2^9..2^10
	}
	if got := h.FractionBelow(7); math.Abs(got-0.83) > 1e-9 {
		t.Errorf("FractionBelow(7) = %g, want 0.83", got)
	}
	if got := h.FractionBelow(20); got != 1 {
		t.Errorf("FractionBelow(max) = %g", got)
	}
}

func TestLogHistogramValidation(t *testing.T) {
	for _, base := range []float64{1, math.NaN(), math.Inf(1)} {
		if _, err := NewLogHistogram(base, 0, 4); err == nil {
			t.Errorf("base %g accepted", base)
		}
	}
	if _, err := NewLogHistogram(2, 4, 4); err == nil {
		t.Error("empty range accepted")
	}
}

func TestLogHistogramString(t *testing.T) {
	h := MustNewLogHistogram(2, 0, 4)
	h.Observe(1)
	h.Observe(0)
	s := h.String()
	if !strings.Contains(s, "zero") || !strings.Contains(s, "#") {
		t.Errorf("render:\n%s", s)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "goodput"
	s.Add(2, 48)
	s.Add(4, 92)
	table := FormatTable("cores", []Series{s})
	if !strings.Contains(table, "goodput") || !strings.Contains(table, "92") {
		t.Errorf("table:\n%s", table)
	}
}

func TestMeanQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Median(xs) != 2.5 {
		t.Errorf("Median = %g", Median(xs))
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Error("extreme quantiles wrong")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty inputs should yield 0")
	}
	// Quantile must not mutate its input.
	if xs[0] != 4 {
		t.Error("Quantile sorted the caller's slice")
	}
}

// TestLogHistogramInfNaN is the regression test for Observe(+Inf):
// math.Log(+Inf) is +Inf and float64→int conversion of +Inf is
// platform-dependent (min-int on amd64), so +Inf used to land in the
// UNDERflow counter. It must land in overflow; NaN and -Inf join the zero
// bucket like every other non-positive/unordered sample.
func TestLogHistogramInfNaN(t *testing.T) {
	h := MustNewLogHistogram(2, 0, 8)
	h.Observe(math.Inf(1))
	if h.over != 1 || h.under != 0 {
		t.Fatalf("+Inf: over=%d under=%d, want over=1 under=0", h.over, h.under)
	}
	h.Observe(math.Inf(-1))
	h.Observe(math.NaN())
	if h.zeros != 2 {
		t.Fatalf("-Inf and NaN: zeros=%d, want 2", h.zeros)
	}
	if h.Total() != 3 {
		t.Fatalf("total=%d, want 3", h.Total())
	}
	// +Inf is above every finite threshold: it must never count as below.
	if got := h.FractionBelow(8); got != 0 {
		t.Fatalf("FractionBelow(8) with only +Inf positive = %v, want 0", got)
	}
	// None of the unordered samples reach a finite bin.
	for _, b := range h.Bins() {
		if b.Count != 0 {
			t.Fatalf("bin 2^%d has count %d from non-finite samples", b.Exp, b.Count)
		}
	}
}

// TestFractionBelowExcludesNonPositive pins the reconciled contract: the
// statistic is the fraction of POSITIVE samples below base^exp, so zeros,
// negatives and NaN appear in neither the numerator nor the denominator.
func TestFractionBelowExcludesNonPositive(t *testing.T) {
	h := MustNewLogHistogram(2, 0, 8)
	h.Observe(1) // 2^0 — below 2^4
	h.Observe(2) // 2^1 — below 2^4
	h.Observe(32)
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.NaN())
	if got := h.FractionBelow(4); got != 2.0/3.0 {
		t.Fatalf("FractionBelow(4) = %v, want 2/3 (zeros excluded both sides)", got)
	}
	// Underflows are positive and count as below.
	h.Observe(0.25)
	if got := h.FractionBelow(4); got != 3.0/4.0 {
		t.Fatalf("FractionBelow(4) with underflow = %v, want 3/4", got)
	}
}

// TestLogHistogramEmpty: an empty histogram answers every statistic with
// zero instead of dividing by zero.
func TestLogHistogramEmpty(t *testing.T) {
	h := MustNewLogHistogram(2, 0, 8)
	if got := h.FractionBelow(4); got != 0 {
		t.Fatalf("empty FractionBelow = %v", got)
	}
	if got := h.FractionBetween(0, 8); got != 0 {
		t.Fatalf("empty FractionBetween = %v", got)
	}
	if h.Total() != 0 || h.Zeros() != 0 {
		t.Fatalf("empty totals: %d/%d", h.Total(), h.Zeros())
	}
	for _, b := range h.Bins() {
		if b.Count != 0 || b.Frequency != 0 {
			t.Fatalf("empty bin 2^%d: %+v", b.Exp, b)
		}
	}
	if s := h.String(); s != "" {
		t.Fatalf("empty histogram renders %q", s)
	}
}

// TestLogHistogramExactAtEdges observes every edge of a histogram and both
// its 1-ulp neighbours: each sample must land in the bin whose reported
// [Lo, Hi) brackets it, and base-2 edges must be the exact powers of two.
// Binning by floor(log(v)/log(base)) fails this: it puts 270 powers of two
// one bin low (2^-29 in bin -30, 2^-31, 2^-39, …).
func TestLogHistogramExactAtEdges(t *testing.T) {
	for _, tc := range []struct {
		base   float64
		lo, hi int
	}{{2, -1074, 1024}, {10, -20, 1}} {
		h := MustNewLogHistogram(tc.base, tc.lo, tc.hi)
		bins := h.Bins()
		if tc.base == 2 {
			for _, b := range bins {
				if b.Lo != math.Ldexp(1, b.Exp) {
					t.Fatalf("base 2: bin %d has Lo %g, want 2^%d", b.Exp, b.Lo, b.Exp)
				}
			}
		}
		edges := []float64{bins[len(bins)-1].Hi}
		for _, b := range bins {
			edges = append(edges, b.Lo)
		}
		bad := 0
		for _, edge := range edges {
			for _, v := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))} {
				i := sort.Search(len(bins), func(i int) bool { return v < bins[i].Hi })
				want, where := &h.zeros, "the zero bucket"
				switch {
				case v <= 0:
				case v < bins[0].Lo:
					want, where = &h.under, "the underflow bucket"
				case i == len(bins):
					want, where = &h.over, "the overflow bucket"
				default:
					want, where = &h.bins[i], fmt.Sprintf("bin %d = [%g, %g)", bins[i].Exp, bins[i].Lo, bins[i].Hi)
				}
				before := *want
				h.Observe(v)
				if *want != before+1 {
					if bad++; bad <= 5 {
						t.Errorf("base %g: %g (%#x) missed %s", tc.base, v, math.Float64bits(v), where)
					}
				}
			}
		}
		if bad > 0 {
			t.Errorf("base %g: %d of %d edge samples missed their bin", tc.base, bad, 3*len(edges))
		}
	}
}

// FuzzLogHistogramObserve: for any float64 and bases 2, 10 and 1.5, the
// one sample lands in exactly one bucket — a bin whose edges bracket it,
// or the zero, underflow or overflow bucket its value calls for. The
// base-1.5 range runs past both ends of float64, so its outer edges are 0
// and +Inf and some bins are empty.
func FuzzLogHistogramObserve(f *testing.F) {
	for _, v := range []float64{0x1p-29, 0x1p-31, 1, 1e-5, 0.1, 1500, 1e300,
		5e-324, 0x1p-1022, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), -1, 0} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		for _, h := range []*LogHistogram{
			MustNewLogHistogram(2, -1074, 1024),
			MustNewLogHistogram(10, -20, 1),
			MustNewLogHistogram(1.5, -1840, 1760),
		} {
			h.Observe(v)
			last := h.edges[len(h.edges)-1]
			fail := func(where string) {
				t.Helper()
				t.Fatalf("base %g: %g (%#x) counted in %s (edges %g … %g, total %d)",
					h.base, v, bits, where, h.edges[0], last, h.Total())
			}
			switch {
			case h.Total() != 1:
				fail("the total")
			case h.zeros == 1:
				if v > 0 {
					fail("the zero bucket")
				}
			case h.under == 1:
				if !(v > 0 && v < h.edges[0]) {
					fail("the underflow bucket")
				}
			case h.over == 1:
				if v < last {
					fail("the overflow bucket")
				}
			default:
				i := 0
				for i < len(h.bins) && h.bins[i] == 0 {
					i++
				}
				if i == len(h.bins) {
					fail("no bucket")
				}
				if h.bins[i] != 1 || !(h.edges[i] <= v && v < h.edges[i+1]) {
					fail(fmt.Sprintf("bin %d = [%g, %g)", h.minExp+i, h.edges[i], h.edges[i+1]))
				}
			}
		}
	})
}

// TestLogHistogramReset: a reset histogram counts nothing, keeps its
// edges, and bins the next sample as a fresh one does.
func TestLogHistogramReset(t *testing.T) {
	h := MustNewLogHistogram(2, 0, 8)
	for _, v := range []float64{0, 0.5, 3, 1e9} {
		h.Observe(v)
	}
	lo := h.Bins()[1].Lo
	h.Reset()
	if h.Total() != 0 || h.Zeros() != 0 || h.under != 0 || h.over != 0 || h.String() != "" {
		t.Fatalf("after Reset: total=%d zeros=%d under=%d over=%d", h.Total(), h.Zeros(), h.under, h.over)
	}
	h.Observe(3)
	if b := h.Bins()[1]; b.Count != 1 || b.Lo != lo || b.Frequency != 1 {
		t.Fatalf("after Reset, Observe(3) gives bin 2^1 %+v", b)
	}
}

var observeSink uint64

// BenchmarkLogHistogramObserve bins a stream shaped like the benchmark's
// telemetry sizes: five significant bits in one of the binades 2^3..2^10.
func BenchmarkLogHistogramObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 4096)
	for i := range samples {
		samples[i] = float64(17+rng.Intn(15)) / 16 * math.Ldexp(1, 3+rng.Intn(8))
	}
	for _, bc := range []struct {
		name   string
		base   float64
		lo, hi int
	}{{"base2", 2, 0, 32}, {"base10", 10, 0, 10}} {
		b.Run(bc.name, func(b *testing.B) {
			h := MustNewLogHistogram(bc.base, bc.lo, bc.hi)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Observe(samples[i&(len(samples)-1)])
			}
			observeSink = h.Total()
		})
	}
}
