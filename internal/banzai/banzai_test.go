package banzai

import (
	"math"
	"strings"
	"testing"
)

// paperTable1 holds the values the paper reports (Table 1).
var paperTable1 = map[string]Result{
	"Default ALU": {DynamicUW: 594.2, LeakageUW: 18.6, AreaUM2: 505.4, MinDelayPs: 133},
	"FPISA ALU":   {DynamicUW: 669.4, LeakageUW: 22.8, AreaUM2: 618.6, MinDelayPs: 135},
	"Default RAW": {DynamicUW: 637.6, LeakageUW: 16.8, AreaUM2: 468.8, MinDelayPs: 133},
	"FPISA RSAW":  {DynamicUW: 721.1, LeakageUW: 22.1, AreaUM2: 633.0, MinDelayPs: 151},
	"ALU+FPU":     {DynamicUW: 3590.6, LeakageUW: 109.8, AreaUM2: 3837.7, MinDelayPs: 136},
}

func pctDiff(got, want float64) float64 {
	return math.Abs(got-want) / want * 100
}

func TestTable1WithinTolerance(t *testing.T) {
	for _, r := range Table1() {
		want, ok := paperTable1[r.Unit]
		if !ok {
			t.Fatalf("unexpected unit %q", r.Unit)
		}
		if d := pctDiff(r.DynamicUW, want.DynamicUW); d > 3 {
			t.Errorf("%s dynamic = %.1f, paper %.1f (%.1f%% off)", r.Unit, r.DynamicUW, want.DynamicUW, d)
		}
		if d := pctDiff(r.LeakageUW, want.LeakageUW); d > 8 {
			t.Errorf("%s leakage = %.1f, paper %.1f (%.1f%% off)", r.Unit, r.LeakageUW, want.LeakageUW, d)
		}
		if d := pctDiff(r.AreaUM2, want.AreaUM2); d > 3 {
			t.Errorf("%s area = %.1f, paper %.1f (%.1f%% off)", r.Unit, r.AreaUM2, want.AreaUM2, d)
		}
		if d := pctDiff(r.MinDelayPs, want.MinDelayPs); d > 2 {
			t.Errorf("%s delay = %.0f, paper %.0f", r.Unit, r.MinDelayPs, want.MinDelayPs)
		}
	}
}

func TestFPISAALUOverheadRatios(t *testing.T) {
	def := DefaultALU().Synthesize(FreePDK15)
	fp := FPISAALU().Synthesize(FreePDK15)
	// Paper: "an enhanced ALU may use 13.0% more power and 22.4% more area".
	powerPct := (fp.DynamicUW/def.DynamicUW - 1) * 100
	areaPct := (fp.AreaUM2/def.AreaUM2 - 1) * 100
	if math.Abs(powerPct-13.0) > 1.5 {
		t.Errorf("FPISA ALU power overhead = %.1f%%, paper 13.0%%", powerPct)
	}
	if math.Abs(areaPct-22.4) > 1.0 {
		t.Errorf("FPISA ALU area overhead = %.1f%%, paper 22.4%%", areaPct)
	}
}

func TestRSAWOverheadRatios(t *testing.T) {
	raw := RAW().Synthesize(FreePDK15)
	rsaw := RSAW().Synthesize(FreePDK15)
	// Paper: RSAW uses 13.6% more power and 35.0% more area than RAW,
	// and its delay is 13.5% longer.
	powerPct := (rsaw.DynamicUW/raw.DynamicUW - 1) * 100
	areaPct := (rsaw.AreaUM2/raw.AreaUM2 - 1) * 100
	delayPct := (rsaw.MinDelayPs/raw.MinDelayPs - 1) * 100
	if math.Abs(powerPct-13.6) > 1.5 {
		t.Errorf("RSAW power overhead = %.1f%%, paper 13.6%%", powerPct)
	}
	if math.Abs(areaPct-35.0) > 1.5 {
		t.Errorf("RSAW area overhead = %.1f%%, paper 35.0%%", areaPct)
	}
	if math.Abs(delayPct-13.5) > 1.0 {
		t.Errorf("RSAW delay overhead = %.1f%%, paper 13.5%%", delayPct)
	}
}

func TestFPUIsOverFiveTimesALU(t *testing.T) {
	// The paper's core efficiency argument (§1, §4.2): a hard FPU costs
	// more than 5x the die area and power of integer ALUs.
	def := DefaultALU().Synthesize(FreePDK15)
	fp := FPISAALU().Synthesize(FreePDK15)
	fpu := ALUPlusFPU().Synthesize(FreePDK15)
	for _, base := range []Result{def, fp} {
		if fpu.AreaUM2 < 5*base.AreaUM2 {
			t.Errorf("FPU area %.0f not > 5x %s area %.0f", fpu.AreaUM2, base.Unit, base.AreaUM2)
		}
		if fpu.DynamicUW < 5*base.DynamicUW {
			t.Errorf("FPU power %.0f not > 5x %s power %.0f", fpu.DynamicUW, base.Unit, base.DynamicUW)
		}
	}
}

func TestAllUnitsMeet1GHz(t *testing.T) {
	// Paper: every unit, including RSAW at 151 ps, is "still far from the
	// 1ns bound at 1 GHz".
	for _, r := range Table1() {
		if r.MinDelayPs > 1000 {
			t.Errorf("%s misses 1 GHz timing: %.0f ps", r.Unit, r.MinDelayPs)
		}
		if r.MinDelayPs > 500 {
			t.Errorf("%s delay %.0f ps is not 'far from the 1ns bound'", r.Unit, r.MinDelayPs)
		}
	}
}

func TestLeakageTracksArea(t *testing.T) {
	// Within the integer atoms (same cell mix) leakage should scale with
	// area; the FPU's multi-Vt mix is exempt.
	def := DefaultALU().Synthesize(FreePDK15)
	fp := FPISAALU().Synthesize(FreePDK15)
	leakRatio := fp.LeakageUW / def.LeakageUW
	areaRatio := fp.AreaUM2 / def.AreaUM2
	if math.Abs(leakRatio-areaRatio) > 0.02 {
		t.Errorf("leakage ratio %.3f diverges from area ratio %.3f", leakRatio, areaRatio)
	}
}

func TestGatesAccounting(t *testing.T) {
	u := DefaultALU()
	want := 0
	for _, b := range u.Blocks {
		want += b.Gates
	}
	if u.Gates() != want || u.Gates() != 1000 {
		t.Errorf("Gates() = %d, want %d (and calibration expects 1000)", u.Gates(), want)
	}
}

func TestFormatTable1(t *testing.T) {
	s := FormatTable1(Table1())
	for _, want := range []string{"Default ALU", "FPISA RSAW", "ALU+FPU", "Dynamic power", "Min delay"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestLibraryCalibrationDocumented(t *testing.T) {
	// Guard the calibration anchors: the default ALU must reproduce the
	// paper's absolute numbers almost exactly (it is the calibration
	// target, not a prediction).
	r := DefaultALU().Synthesize(FreePDK15)
	if pctDiff(r.AreaUM2, 505.4) > 0.1 || pctDiff(r.DynamicUW, 594.2) > 0.5 {
		t.Errorf("calibration drifted: %+v", r)
	}
}
