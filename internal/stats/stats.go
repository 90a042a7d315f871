// Package stats provides the histogram and series tooling used to
// regenerate the paper's figures: log-scale frequency histograms (error
// distributions, Fig. 8; max/min-ratio distributions, Fig. 7) and labelled
// (x, y) series (goodput curves, accuracy curves).
//
// Integration status: on the data path as well as the presentation layer.
// A telemetry tenant on the multi-tenant switch (aggservice's
// ClassTelemetry) maintains a LogHistogram of sample sizes per job and
// drains its bins over observer frames (examples/telemetry checks the
// drained bins exactly against a host-side mirror), alongside the figure
// output consumed by cmd/fpisa-bench and examples/allreduce and the
// analysis shaping in internal/gradients, internal/train, and
// internal/perfmodel.
//
// A LogHistogram's bins are its stored edges: NewLogHistogram computes
// base^e once for every boundary, Observe bins a sample from its binary
// exponent and two or three comparisons against those edges — no math.Log
// or math.Pow per sample — and Bins reports the same edges as Lo and Hi, so
// binning and reporting cannot disagree. Reset zeroes the counts in place
// and keeps the edges, for a drain that re-arms the histogram.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// LogHistogram buckets positive values by log-base exponent. Its bin
// edges are data: NewLogHistogram stores edge k = base^(minExp+k) for
// every boundary, and bin i is exactly [edge i, edge i+1) — the same Lo
// and Hi that Bins reports. Observe makes no transcendental call, and
// Reset zeroes the counts while keeping the edges.
type LogHistogram struct {
	base   float64
	minExp int
	edges  []float64 // base^minExp … base^maxExp, one per bin boundary
	estMul int64     // 1/log2(base) in 32.32 fixed point: (e·estMul)>>32 estimates floor(e/log2(base))
	bins   []uint64
	zeros  uint64
	under  uint64
	over   uint64
	total  uint64
}

// NewLogHistogram creates a histogram with one bin per integer exponent in
// [minExp, maxExp).
func NewLogHistogram(base float64, minExp, maxExp int) (*LogHistogram, error) {
	if !(base > 1) || math.IsInf(base, 1) {
		return nil, fmt.Errorf("stats: log base %g must be finite and exceed 1", base)
	}
	if maxExp <= minExp {
		return nil, fmt.Errorf("stats: empty exponent range [%d,%d)", minExp, maxExp)
	}
	edges := make([]float64, maxExp-minExp+1)
	for i := range edges {
		edges[i] = math.Pow(base, float64(minExp+i))
	}
	// Capping the scale at 2^20 keeps e·estMul inside int64 for every
	// binary exponent; a base closer to 1 than that only walks further.
	estMul := int64(math.Ldexp(min(1/math.Log2(base), 1<<20), 32))
	return &LogHistogram{base: base, minExp: minExp, edges: edges, estMul: estMul,
		bins: make([]uint64, maxExp-minExp)}, nil
}

// MustNewLogHistogram panics on error.
func MustNewLogHistogram(base float64, minExp, maxExp int) *LogHistogram {
	h, err := NewLogHistogram(base, minExp, maxExp)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe adds one sample. Non-positive and NaN samples land in the zero
// bucket (exact zeros are common in error distributions and reported
// separately); +Inf lands in the overflow bucket.
//
// The sample's binary exponent, floor(log2 v), scaled by 1/log2(base)
// estimates its bin; comparisons against the stored edges then make the
// bin exact. The estimate is exact for base 2 and within a bin for any
// larger base, so a sample costs two or three comparisons; a base below 2
// can take up to ⌈1/log2(base)⌉ more.
func (h *LogHistogram) Observe(v float64) {
	h.total++
	if !(v > 0) {
		h.zeros++
		return
	}
	// floor(log2 v) straight from the exponent field; v > 0, so the sign
	// bit is clear.
	b := math.Float64bits(v)
	e := int64(b>>52) - 1023
	switch e {
	case 1024: // +Inf
		h.over++
		return
	case -1023: // subnormal: v = b·2^-1074
		e = -1011 - int64(bits.LeadingZeros64(b))
	}
	// p counts the edges at or below v: 0 is underflow, len(edges) overflow.
	edges := h.edges
	p := len(edges)
	if est := (e*h.estMul)>>32 - int64(h.minExp) + 1; est < 0 {
		p = 0
	} else if est < int64(p) {
		p = int(est)
	}
	for p > 0 && v < edges[p-1] {
		p--
	}
	for p < len(edges) && v >= edges[p] {
		p++
	}
	switch p {
	case 0:
		h.under++
	case len(edges):
		h.over++
	default:
		h.bins[p-1]++
	}
}

// Reset zeroes every count and keeps the edges.
func (h *LogHistogram) Reset() {
	clear(h.bins)
	h.zeros, h.under, h.over, h.total = 0, 0, 0, 0
}

// Total returns the sample count.
func (h *LogHistogram) Total() uint64 { return h.total }

// Zeros returns the non-positive sample count.
func (h *LogHistogram) Zeros() uint64 { return h.zeros }

// Bin is one histogram bucket.
type Bin struct {
	// Lo and Hi are the bucket bounds, the histogram's stored edges
	// base^Exp and base^(Exp+1).
	Lo, Hi float64
	// Exp is the low bound's exponent.
	Exp int
	// Count and Frequency describe the bucket's mass.
	Count     uint64
	Frequency float64
}

// Bins returns the buckets (excluding zero/under/overflow).
func (h *LogHistogram) Bins() []Bin {
	out := make([]Bin, len(h.bins))
	for i, c := range h.bins {
		b := Bin{Lo: h.edges[i], Hi: h.edges[i+1], Exp: h.minExp + i, Count: c}
		if h.total > 0 {
			b.Frequency = float64(c) / float64(h.total)
		}
		out[i] = b
	}
	return out
}

// FractionBelow returns the fraction of positive samples below base^exp
// (the Fig. 7 "≈83% of ratios below 2^7" statistic), counting underflows.
// Non-positive and NaN samples are excluded from both the numerator and
// the denominator.
func (h *LogHistogram) FractionBelow(exp int) float64 {
	pos := h.total - h.zeros
	if pos == 0 {
		return 0
	}
	sum := h.under
	for i, c := range h.bins {
		if h.minExp+i >= exp {
			break
		}
		sum += c
	}
	return float64(sum) / float64(pos)
}

// FractionBetween returns the mass with values in [base^lo, base^hi).
func (h *LogHistogram) FractionBetween(lo, hi int) float64 {
	if h.total == 0 {
		return 0
	}
	var sum uint64
	for i, c := range h.bins {
		e := h.minExp + i
		if e >= lo && e < hi {
			sum += c
		}
	}
	return float64(sum) / float64(h.total)
}

// String renders an ASCII bar chart.
func (h *LogHistogram) String() string {
	var b strings.Builder
	maxFreq := 0.0
	bins := h.Bins()
	for _, bin := range bins {
		if bin.Frequency > maxFreq {
			maxFreq = bin.Frequency
		}
	}
	if h.zeros > 0 {
		fmt.Fprintf(&b, "%12s %7.4f\n", "zero", float64(h.zeros)/float64(h.total))
	}
	for _, bin := range bins {
		if bin.Count == 0 {
			continue
		}
		width := 0
		if maxFreq > 0 {
			width = int(bin.Frequency / maxFreq * 50)
		}
		fmt.Fprintf(&b, "%5g^%-5d %7.4f %s\n", h.base, bin.Exp, bin.Frequency, strings.Repeat("#", width))
	}
	return b.String()
}

// Series is one labelled curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// FormatTable renders a set of series sharing X values as a column table.
func FormatTable(xLabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%18s", s.Name)
	}
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	for i, x := range series[0].X {
		fmt.Fprintf(&b, "%-14g", x)
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%18.4g", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation on a
// sorted copy.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
