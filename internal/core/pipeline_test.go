package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fpisa/internal/pisa"
)

func TestBuildProgramValidation(t *testing.T) {
	base, ext := pisa.BaseArch(), pisa.ExtendedArch()

	// Full FPISA refuses to compile on the base architecture (§4.3).
	if _, _, err := BuildProgram(DefaultFP32(ModeFull), 1, 8, base); err == nil ||
		!strings.Contains(err.Error(), "RSAW") {
		t.Errorf("full FPISA on base arch: %v", err)
	}
	// FPISA-A compiles on both.
	if _, _, err := BuildProgram(DefaultFP32(ModeApprox), 1, 8, base); err != nil {
		t.Errorf("FPISA-A on base arch: %v", err)
	}
	if _, _, err := BuildProgram(DefaultFP32(ModeApprox), 1, 8, ext); err != nil {
		t.Errorf("FPISA-A on extended arch: %v", err)
	}
	// Module limits: one on base (Appendix B), stateful-ALU bound on
	// extended (§4.2).
	if MaxModules(base) != 1 {
		t.Errorf("MaxModules(base) = %d, want 1", MaxModules(base))
	}
	if MaxModules(ext) != 3 {
		t.Errorf("MaxModules(ext) = %d, want 3", MaxModules(ext))
	}
	if _, _, err := BuildProgram(DefaultFP32(ModeApprox), 2, 8, base); err == nil {
		t.Error("2 modules accepted on base arch")
	}
	if _, _, err := BuildProgram(DefaultFP32(ModeApprox), 3, 8, ext); err != nil {
		t.Errorf("3 modules rejected on extended arch: %v", err)
	}
	// FP16 and guard bits are software-model-only.
	if _, _, err := BuildProgram(Config{Profile: NumericProfile{Format: FormatF16}, Mode: ModeApprox}, 1, 8, base); err == nil {
		t.Error("FP16 pipeline build accepted")
	}
	g := DefaultFP32(ModeApprox)
	g.Profile.Guard = 2
	if _, _, err := BuildProgram(g, 1, 8, base); err == nil {
		t.Error("guard-bit pipeline build accepted")
	}
}

func newAgg(t *testing.T, mode Mode, arch pisa.Arch, modules, slots int) *PipelineAggregator {
	t.Helper()
	pa, err := NewPipelineAggregator(DefaultFP32(mode), modules, slots, arch)
	if err != nil {
		t.Fatal(err)
	}
	return pa
}

func TestPipelineFig4Example(t *testing.T) {
	pa := newAgg(t, ModeApprox, pisa.BaseArch(), 1, 4)
	if _, err := pa.Add(0, []float32{3.0}); err != nil {
		t.Fatal(err)
	}
	r, err := pa.Add(0, []float32{1.0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Values[0] != 4.0 {
		t.Errorf("3+1 = %g, want 4", r.Values[0])
	}
	if r.Count != 2 {
		t.Errorf("count = %d, want 2", r.Count)
	}
	// Register state matches the software model's denormalized form.
	exp, _ := pa.Switch().RegisterSnapshot("exp_reg_0")
	man, _ := pa.Switch().RegisterSnapshot("man_reg_0")
	if exp[0] != 128 || man[0] != 0x1000000 {
		t.Errorf("registers E=%d M=%#x, want 128/0x1000000", exp[0], man[0])
	}
}

func TestPipelineReadAndReset(t *testing.T) {
	pa := newAgg(t, ModeApprox, pisa.BaseArch(), 1, 4)
	pa.Add(2, []float32{1.5})
	pa.Add(2, []float32{2.0})
	r, err := pa.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values[0] != 3.5 || r.Count != 2 {
		t.Errorf("read = %g cnt %d", r.Values[0], r.Count)
	}
	r, err = pa.ReadReset(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values[0] != 3.5 || r.Count != 2 {
		t.Errorf("readreset = %g cnt %d", r.Values[0], r.Count)
	}
	r, _ = pa.Read(2)
	if r.Values[0] != 0 || r.Count != 0 {
		t.Errorf("after reset: %g cnt %d", r.Values[0], r.Count)
	}
}

func TestPipelineMultiModule(t *testing.T) {
	pa := newAgg(t, ModeApprox, pisa.ExtendedArch(), 3, 4)
	pa.Add(1, []float32{1, 10, 100})
	r, err := pa.Add(1, []float32{2, 20, 200})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{3, 30, 300}
	for k, w := range want {
		if r.Values[k] != w {
			t.Errorf("module %d = %g, want %g", k, r.Values[k], w)
		}
	}
}

func TestPipelineOverflowSticky(t *testing.T) {
	pa := newAgg(t, ModeApprox, pisa.BaseArch(), 1, 1)
	maxMant := math.Float32frombits(0x3FFFFFFF)
	var r Result
	var err error
	for i := 0; i < 129; i++ {
		r, err = pa.Add(0, []float32{maxMant})
		if err != nil {
			t.Fatal(err)
		}
		if i < 128 && r.Overflow[0] {
			t.Fatalf("overflow flagged after %d adds", i+1)
		}
	}
	if !r.Overflow[0] {
		t.Error("129th max-mantissa add did not flag overflow")
	}
	// Sticky: later benign packets still report it.
	r, _ = pa.Read(0)
	if !r.Overflow[0] {
		t.Error("overflow flag not sticky across reads")
	}
	// ReadReset clears it.
	pa.ReadReset(0)
	r, _ = pa.Read(0)
	if r.Overflow[0] {
		t.Error("overflow flag survived reset")
	}
}

// TestPipelineEquivalence is the central property test: the pipeline
// execution must be bit-identical to the software model, add for add, set
// for set and read for read, in both modes.
func TestPipelineEquivalence(t *testing.T) {
	cases := []struct {
		name string
		mode Mode
		arch pisa.Arch
	}{
		{"approx-base", ModeApprox, pisa.BaseArch()},
		{"approx-extended", ModeApprox, pisa.ExtendedArch()},
		{"full-extended", ModeFull, pisa.ExtendedArch()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const slots = 4
			pa := newAgg(t, c.mode, c.arch, 1, slots)
			model := MustNewAccumulator(DefaultFP32(c.mode), slots)
			rng := rand.New(rand.NewSource(99))

			randVal := func() float32 {
				// Normal-range values with varied exponents (including
				// gaps beyond the headroom to exercise every path), kept
				// clear of read-out overflow/underflow.
				exp := 100 + rng.Intn(56) // biased 100..155
				frac := rng.Uint32() & 0x7FFFFF
				sign := rng.Uint32() & 1
				return math.Float32frombits(uint32(sign)<<31 | uint32(exp)<<23 | frac)
			}

			for step := 0; step < 3000; step++ {
				slot := rng.Intn(slots)
				switch roll := rng.Intn(10); roll {
				case 0: // read
					r, err := pa.Read(slot)
					if err != nil {
						t.Fatal(err)
					}
					want := math.Float32frombits(model.ReadBits(slot))
					if math.Float32bits(r.Values[0]) != math.Float32bits(want) {
						t.Fatalf("step %d: read %g (%#x) vs model %g (%#x)",
							step, r.Values[0], math.Float32bits(r.Values[0]), want, math.Float32bits(want))
					}
				case 1: // read-reset
					r, err := pa.ReadReset(slot)
					if err != nil {
						t.Fatal(err)
					}
					want := math.Float32frombits(model.ReadBits(slot))
					model.Reset(slot)
					if math.Float32bits(r.Values[0]) != math.Float32bits(want) {
						t.Fatalf("step %d: readreset mismatch", step)
					}
				default: // add; roll 2 is a slot version's first add (PktSet)
					v := randVal()
					var r Result
					var err error
					if roll == 2 {
						model.Reset(slot)
						err = pa.SetInto(slot, []float32{v}, &r)
					} else {
						r, err = pa.Add(slot, []float32{v})
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := model.Add(slot, v); err != nil {
						t.Fatal(err)
					}
					// Compare raw register state bit for bit.
					e, m := model.RawState(slot)
					exps, _ := pa.Switch().RegisterSnapshot("exp_reg_0")
					mans, _ := pa.Switch().RegisterSnapshot("man_reg_0")
					if exps[slot] != e || int32(mans[slot]) != m {
						t.Fatalf("step %d: add %g: pipeline E=%d M=%#x vs model E=%d M=%#x",
							step, v, exps[slot], mans[slot], e, uint32(m))
					}
					// And the renormalized response.
					want := math.Float32frombits(model.ReadBits(slot))
					if math.Float32bits(r.Values[0]) != math.Float32bits(want) {
						t.Fatalf("step %d: add response %g vs model %g", step, r.Values[0], want)
					}
					if r.Overflow[0] != model.Overflowed(slot) {
						t.Fatalf("step %d: overflow flag %v vs model %v", step, r.Overflow[0], model.Overflowed(slot))
					}
				}
			}
		})
	}
}

func TestPipelineDenormalInputs(t *testing.T) {
	// Denormal inputs go through the implied-0/effective-exponent-1 path
	// in both the model and the pipeline.
	pa := newAgg(t, ModeApprox, pisa.BaseArch(), 1, 1)
	model := MustNewAccumulator(DefaultFP32(ModeApprox), 1)
	sub := math.Float32frombits(0x00400123)
	pa.Add(0, []float32{sub})
	model.Add(0, sub)
	pa.Add(0, []float32{sub})
	model.Add(0, sub)
	r, _ := pa.Read(0)
	want := math.Float32frombits(model.ReadBits(0))
	if math.Float32bits(r.Values[0]) != math.Float32bits(want) {
		t.Errorf("denormal sum: pipeline %#x vs model %#x",
			math.Float32bits(r.Values[0]), math.Float32bits(want))
	}
}

// TestTable3ResourceShape verifies the compiled FPISA-A module reproduces
// the shape of paper Table 3 on the base architecture.
func TestTable3ResourceShape(t *testing.T) {
	pa := newAgg(t, ModeApprox, pisa.BaseArch(), 1, 256)
	u := pa.Utilization()

	rows := map[string]pisa.ResourceRow{}
	for _, r := range u.Rows() {
		rows[r.Resource] = r
	}

	// The headline number: emulated variable shifts drive one stage's
	// VLIW utilization to 96.88% (31 of 32 slots) — the bottleneck that
	// prevents a second module (Appendix B).
	if got := rows["VLIW instruction slots"].MaxStagePct; math.Abs(got-96.88) > 0.01 {
		t.Errorf("max VLIW in a MAU = %.2f%%, paper 96.88%%", got)
	}
	// Stateful ALUs: 4 total (exp, man, cnt, ovf) = 8.33%, max 2 in one
	// MAU = 50%.
	if got := rows["Stateful ALU"].TotalPct; math.Abs(got-8.33) > 0.05 {
		t.Errorf("stateful ALU total = %.2f%%, paper 8.33%%", got)
	}
	if got := rows["Stateful ALU"].MaxStagePct; math.Abs(got-50.0) > 0.01 {
		t.Errorf("stateful ALU max = %.2f%%, paper 50.00%%", got)
	}
	// SRAM max in a MAU: 5.00% (4 of 80 blocks in the exponent stage).
	if got := rows["SRAM"].MaxStagePct; math.Abs(got-5.0) > 0.01 {
		t.Errorf("SRAM max = %.2f%%, paper 5.00%%", got)
	}
	// TCAM max in a MAU: one block = 4.17%.
	if got := rows["TCAM"].MaxStagePct; math.Abs(got-4.17) > 0.01 {
		t.Errorf("TCAM max = %.2f%%, paper 4.17%%", got)
	}
	// Stage span: the paper reports 9 of 12; our conservative dependency
	// model lands within one stage of that.
	if used := u.StagesUsed(); used < 9 || used > 11 {
		t.Errorf("stages used = %d, want 9..11 (paper: 9)", used)
	}
}

// TestVariableShiftUnlocksModules is the §4.2/§5.1 ablation: the proposed
// extension collapses the shift tables so several modules fit per pipeline.
func TestVariableShiftUnlocksModules(t *testing.T) {
	ext := pisa.ExtendedArch()
	pa := newAgg(t, ModeApprox, ext, 3, 64)
	u := pa.Utilization()
	for _, r := range u.Rows() {
		if r.Resource == "VLIW instruction slots" && r.MaxStagePct > 75 {
			t.Errorf("extended arch VLIW max = %.2f%%, expected the shift tables to collapse", r.MaxStagePct)
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	pa := newAgg(t, ModeApprox, pisa.BaseArch(), 1, 2)
	if _, err := pa.Add(5, []float32{1}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := pa.Add(0, []float32{1, 2}); err == nil {
		t.Error("too many values accepted")
	}
}
