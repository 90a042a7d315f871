package gradients

import (
	"math"

	"fpisa/internal/core"
	"fpisa/internal/fpnum"
	"fpisa/internal/stats"
)

// AggregateFPISA sums the workers' vectors element-wise through an FPISA
// accumulator and returns the per-element results, together with the
// operation statistics (the §5.2.1 error-source counters).
func AggregateFPISA(cfg core.Config, workers [][]float32) ([]float32, core.Stats, error) {
	n := len(workers[0])
	acc, err := core.NewAccumulator(cfg, n)
	if err != nil {
		return nil, core.Stats{}, err
	}
	for _, w := range workers {
		for i, v := range w {
			if err := acc.Add(i, v); err != nil {
				return nil, core.Stats{}, err
			}
		}
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = acc.ReadFloat32(i)
	}
	return out, acc.Stats(), nil
}

// AggregateExact sums element-wise in float64 (the error-analysis
// reference).
func AggregateExact(workers [][]float32) []float64 {
	n := len(workers[0])
	out := make([]float64, n)
	col := make([]float32, len(workers))
	for i := 0; i < n; i++ {
		for w := range workers {
			col[w] = workers[w][i]
		}
		out[i] = fpnum.Sum64of32(col)
	}
	return out
}

// ErrorReport is the Fig. 8 artifact: the distribution of absolute
// aggregation error of FPISA(-A) versus exact addition, plus the error-
// source accounting.
type ErrorReport struct {
	Hist *stats.LogHistogram
	// Stats carries the path counters; OverwriteShare/LeftShiftShare are
	// the §5.2.1 rates (events per addition).
	Stats          core.Stats
	OverwriteShare float64
	LeftShiftShare float64
	// MedianError and P95Error summarize the absolute error.
	MedianError float64
	P95Error    float64
}

// ErrorDistribution aggregates the workers' vectors with FPISA and
// histograms the absolute error against the exact sums (decade bins from
// 1e-20 to 1, matching Fig. 8's axis).
func ErrorDistribution(cfg core.Config, workers [][]float32) (ErrorReport, error) {
	got, st, err := AggregateFPISA(cfg, workers)
	if err != nil {
		return ErrorReport{}, err
	}
	exact := AggregateExact(workers)
	h := stats.MustNewLogHistogram(10, -20, 1)
	errs := make([]float64, len(got))
	for i := range got {
		e := math.Abs(float64(got[i]) - exact[i])
		errs[i] = e
		h.Observe(e)
	}
	rep := ErrorReport{Hist: h, Stats: st,
		MedianError: stats.Median(errs), P95Error: stats.Quantile(errs, 0.95)}
	if st.Adds > 0 {
		rep.OverwriteShare = float64(st.OverwriteDiscards) / float64(st.Adds)
		rep.LeftShiftShare = float64(st.LeftShiftOverflows) / float64(st.Adds)
	}
	return rep, nil
}

// RatioHistogram builds the Fig. 7 histogram: element-wise max/min ratios
// in power-of-two bins from 2^0 to 2^20.
func RatioHistogram(workers [][]float32) *stats.LogHistogram {
	h := stats.MustNewLogHistogram(2, 0, 20)
	for _, r := range MaxMinRatios(workers) {
		h.Observe(r)
	}
	return h
}
