package core

import (
	"encoding/binary"
	"fmt"
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

// wire32 encodes host values as the byte form's big-endian FP32 region.
func wire32(vals ...float32) []byte { return DefaultProfile.AppendValues(nil, vals) }

// reg reads one element of a named register array, e.g. the slot's add
// counter (cnt_reg) or module k's sticky overflow flag (ovf_reg_k).
func reg(t testing.TB, pa *PipelineAggregator, name string, i int) uint32 {
	t.Helper()
	r, err := pa.Switch().RegisterSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	return r[i]
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
	if r[0] != 4.0 {
		t.Errorf("3+1 = %g, want 4", r[0])
	}
	if c := reg(t, pa, "cnt_reg", 0); c != 2 {
		t.Errorf("count = %d, want 2", c)
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
	if c := reg(t, pa, "cnt_reg", 2); r[0] != 3.5 || c != 2 {
		t.Errorf("read = %g cnt %d", r[0], c)
	}
	r, err = pa.ReadReset(2)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 3.5 {
		t.Errorf("readreset = %g", r[0])
	}
	r, _ = pa.Read(2)
	if c := reg(t, pa, "cnt_reg", 2); r[0] != 0 || c != 0 {
		t.Errorf("after reset: %g cnt %d", r[0], c)
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
		if r[k] != w {
			t.Errorf("module %d = %g, want %g", k, r[k], w)
		}
	}
}

// TestPacketLayoutGolden pins the FPISA packet of a multi-module build: the
// op, idx, cnt header, then every module's big-endian FP32 value in one
// region — an ADD's value region as the wire carries it — then one overflow
// octet per module. The switch answers in the same layout, cnt counting the
// contribution and the header otherwise as it came.
func TestPacketLayoutGolden(t *testing.T) {
	pa := newAgg(t, ModeApprox, pisa.ExtendedArch(), 3, 4)
	req, err := pa.Packet(PktAdd, 3, []float32{1.5, -2, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	const want = "00 00 00 00 03 00 00 00 00 3f c0 00 00 c0 00 00 00 3e 80 00 00 00 00 00"
	if got := fmt.Sprintf("% x", req); got != want {
		t.Errorf("request  % x\nwant     %s", req, want)
	}
	resp, err := pa.Switch().ProcessScratch(1, req)
	if err != nil {
		t.Fatal(err)
	}
	const wantResp = "00 00 00 00 03 00 00 00 01 3f c0 00 00 c0 00 00 00 3e 80 00 00 00 00 00"
	if got := fmt.Sprintf("% x", resp.Packet); got != wantResp {
		t.Errorf("response % x\nwant     %s", resp.Packet, wantResp)
	}
}

func TestPipelineOverflowSticky(t *testing.T) {
	pa := newAgg(t, ModeApprox, pisa.BaseArch(), 1, 1)
	maxMant := wire32(math.Float32frombits(0x3FFFFFFF))
	out := make([]byte, 4)
	var ovf bool
	var err error
	for i := 0; i < 129; i++ {
		ovf, err = pa.AddInto(0, maxMant, out)
		if err != nil {
			t.Fatal(err)
		}
		if i < 128 && ovf {
			t.Fatalf("overflow flagged after %d adds", i+1)
		}
	}
	if !ovf || reg(t, pa, "ovf_reg_0", 0) == 0 {
		t.Error("129th max-mantissa add did not flag overflow")
	}
	// Sticky: later benign packets still report it.
	if ovf, _ = pa.ReadInto(0, out); !ovf {
		t.Error("overflow flag not sticky across reads")
	}
	// ReadReset clears it.
	pa.ReadReset(0)
	if ovf, _ = pa.ReadInto(0, out); ovf || reg(t, pa, "ovf_reg_0", 0) != 0 {
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
					if math.Float32bits(r[0]) != math.Float32bits(want) {
						t.Fatalf("step %d: read %g (%#x) vs model %g (%#x)",
							step, r[0], math.Float32bits(r[0]), want, math.Float32bits(want))
					}
				case 1: // read-reset
					r, err := pa.ReadReset(slot)
					if err != nil {
						t.Fatal(err)
					}
					want := math.Float32frombits(model.ReadBits(slot))
					model.Reset(slot)
					if math.Float32bits(r[0]) != math.Float32bits(want) {
						t.Fatalf("step %d: readreset mismatch", step)
					}
				default: // add; roll 2 is a slot version's first add (PktSet)
					v := randVal()
					out := make([]byte, 4)
					var ovf bool
					var err error
					if roll == 2 {
						model.Reset(slot)
						ovf, err = pa.SetInto(slot, wire32(v), out)
					} else {
						ovf, err = pa.AddInto(slot, wire32(v), out)
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
					// And the renormalized response, as wire bits.
					if got, want := binary.BigEndian.Uint32(out), model.ReadBits(slot); got != want {
						t.Fatalf("step %d: add response %#x vs model %#x", step, got, want)
					}
					if ovf != model.Overflowed(slot) {
						t.Fatalf("step %d: overflow flag %v vs model %v", step, ovf, model.Overflowed(slot))
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
	if math.Float32bits(r[0]) != math.Float32bits(want) {
		t.Errorf("denormal sum: pipeline %#x vs model %#x",
			math.Float32bits(r[0]), math.Float32bits(want))
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
