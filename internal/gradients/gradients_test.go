package gradients

import (
	"math"
	"testing"

	"fpisa/internal/core"
)

func TestProfilesListed(t *testing.T) {
	if len(All()) != 7 {
		t.Errorf("All() = %d models, want 7 (paper §5.2)", len(All()))
	}
	if len(Fig7Profiles()) != 3 {
		t.Errorf("Fig7Profiles() = %d, want 3", len(Fig7Profiles()))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(VGG19, 1).WorkerGradients(4, 100)
	b := NewGenerator(VGG19, 1).WorkerGradients(4, 100)
	for w := range a {
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				t.Fatal("generator not deterministic")
			}
		}
	}
	c := NewGenerator(VGG19, 2).WorkerGradients(4, 100)
	same := true
	for i := range a[0] {
		if a[0][i] != c[0][i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical gradients")
	}
}

func TestGradientRangeMatchesPaper(t *testing.T) {
	// §5.1 / INCEPTIONN: values largely in [-1, 1], most close to 0.
	g := NewGenerator(VGG19, 3)
	ws := g.WorkerGradients(8, 20000)
	inUnit, small, total := 0, 0, 0
	for _, w := range ws {
		for _, v := range w {
			total++
			m := math.Abs(float64(v))
			if m <= 1 {
				inUnit++
			}
			if m < 0.1 {
				small++
			}
		}
	}
	if frac := float64(inUnit) / float64(total); frac < 0.95 {
		t.Errorf("only %.1f%% of gradients within [-1,1]", frac*100)
	}
	if frac := float64(small) / float64(total); frac < 0.70 {
		t.Errorf("only %.1f%% of gradients below 0.1; should be concentrated near 0", frac*100)
	}
}

// TestFig7RatioCalibration verifies the central §5.1 statistic: ~83% of
// element-wise max/min ratios across 8 workers are below 2^7.
func TestFig7RatioCalibration(t *testing.T) {
	for _, p := range Fig7Profiles() {
		g := NewGenerator(p, 42)
		ws := g.WorkerGradients(8, 30000)
		h := RatioHistogram(ws)
		frac := h.FractionBelow(7)
		if frac < 0.74 || frac > 0.92 {
			t.Errorf("%s: P(ratio < 2^7) = %.3f, want ≈0.83 (paper Fig. 7)", p.Name, frac)
		}
		// Ratios are >= 1 by construction.
		if h.Zeros() != 0 {
			t.Errorf("%s: %d non-positive ratios", p.Name, h.Zeros())
		}
	}
}

func TestMaxMinRatios(t *testing.T) {
	ws := [][]float32{{1, 2}, {-4, 2}, {2, 0}}
	rs := MaxMinRatios(ws)
	// Element 0: |1|,|−4|,|2| → 4; element 1 has a zero → skipped.
	if len(rs) != 1 || rs[0] != 4 {
		t.Errorf("ratios = %v", rs)
	}
	if MaxMinRatios(nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestAggregateAgreement(t *testing.T) {
	g := NewGenerator(VGG19, 5)
	ws := g.WorkerGradients(8, 2000)
	exact := AggregateExact(ws)
	seq := aggregateFP32Sequential(ws)
	fpisa, st, err := AggregateFPISA(core.DefaultFP32(core.ModeApprox), ws)
	if err != nil {
		t.Fatal(err)
	}
	large := 0
	for i := range exact {
		if math.Abs(float64(seq[i])-exact[i]) > 1e-5 {
			t.Fatalf("sequential FP32 far from exact at %d", i)
		}
		if math.Abs(float64(fpisa[i])-exact[i]) > 1e-4+1e-4*math.Abs(exact[i]) {
			large++
		}
	}
	// The rare large deviations are exactly the errors FPISA-A is
	// specified to make (§4.3): overwrites and left-shift overflows on
	// elements whose worker spread exceeds the headroom.
	if uint64(large) > st.OverwriteDiscards+st.LeftShiftOverflows {
		t.Errorf("%d large errors exceed %d overwrite + %d left-shift events",
			large, st.OverwriteDiscards, st.LeftShiftOverflows)
	}
	if frac := float64(large) / float64(len(exact)); frac > 0.07 {
		t.Errorf("%.2f%% of elements suffered large error; want < 7%%", frac*100)
	}
}

// TestFig8ErrorDistribution verifies the error-analysis shape of §5.2.1:
// most errors tiny (the paper reports >95% within [1e-10, 1e-8] for its
// trace; our calibrated workload must land in the same decade band), and
// overwrite/left-shift events rare (<0.9% and <0.1% of additions).
func TestFig8ErrorDistribution(t *testing.T) {
	g := NewGenerator(VGG19, 42)
	ws := g.WorkerGradients(8, 30000)
	rep, err := ErrorDistribution(core.DefaultFP32(core.ModeApprox), ws)
	if err != nil {
		t.Fatal(err)
	}
	// Bulk of the error mass within [1e-12, 1e-7] (zeros excluded).
	frac := rep.Hist.FractionBetween(-12, -7)
	zero := float64(rep.Hist.Zeros()) / float64(rep.Hist.Total())
	if frac+zero < 0.90 {
		t.Errorf("only %.1f%% of errors within the rounding band (+%.1f%% exact)", frac*100, zero*100)
	}
	if rep.OverwriteShare > 0.009 {
		t.Errorf("overwrite share %.4f > paper bound 0.009", rep.OverwriteShare)
	}
	if rep.LeftShiftShare > 0.0015 {
		// The paper reports <0.1% on its recorded traces; the calibrated
		// synthetic workload sits at the same order of magnitude.
		t.Errorf("left-shift share %.4f > 0.0015", rep.LeftShiftShare)
	}
	if rep.MedianError > 1e-8 {
		t.Errorf("median error %g too large", rep.MedianError)
	}
}

// TestFig8StableAcrossEpochs mirrors the paper's observation that the
// error distribution stays similar in early, middle and final phases.
func TestFig8StableAcrossEpochs(t *testing.T) {
	var medians []float64
	for _, epoch := range []int{1, 20, 40} {
		g := NewGenerator(VGG19, 42)
		g.SetEpoch(epoch)
		ws := g.WorkerGradients(8, 10000)
		rep, err := ErrorDistribution(core.DefaultFP32(core.ModeApprox), ws)
		if err != nil {
			t.Fatal(err)
		}
		medians = append(medians, rep.MedianError)
	}
	// Medians within two orders of magnitude of each other.
	for i := 1; i < len(medians); i++ {
		if medians[i] <= 0 || medians[0] <= 0 {
			continue
		}
		ratio := medians[i] / medians[0]
		if ratio > 100 || ratio < 0.01 {
			t.Errorf("error medians diverge across epochs: %v", medians)
		}
	}
}

// TestFullModeReducesError: the §4.2 extensions eliminate overwrite errors
// entirely.
func TestFullModeReducesError(t *testing.T) {
	g := NewGenerator(DeepLight, 9)
	ws := g.WorkerGradients(8, 10000)
	repA, err := ErrorDistribution(core.DefaultFP32(core.ModeApprox), ws)
	if err != nil {
		t.Fatal(err)
	}
	repF, err := ErrorDistribution(core.DefaultFP32(core.ModeFull), ws)
	if err != nil {
		t.Fatal(err)
	}
	if repF.Stats.OverwriteDiscards != 0 {
		t.Error("full FPISA recorded overwrite discards")
	}
	if repF.P95Error > repA.P95Error*1.5+1e-12 {
		t.Errorf("full-mode p95 error %g worse than approx %g", repF.P95Error, repA.P95Error)
	}
}

// aggregateFP32Sequential sums element-wise in float32, worker order — the
// "default addition" the paper compares against in Fig. 8/9.
func aggregateFP32Sequential(workers [][]float32) []float32 {
	n := len(workers[0])
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		var s float32
		for w := range workers {
			s += workers[w][i]
		}
		out[i] = s
	}
	return out
}
