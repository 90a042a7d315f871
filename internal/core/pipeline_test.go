package core

import (
	"bytes"
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

// Replicate builds another aggregator on the same compiled program with
// fresh register state (pisa.Switch.Replicate): one register bank instead
// of a recompile, so the differential tests run every input on fresh
// replicas of one build.
func (pa *PipelineAggregator) Replicate() *PipelineAggregator {
	return &PipelineAggregator{sw: pa.sw.Replicate(), lay: pa.lay, req: make([]byte, pa.lay.PacketBytes)}
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

// buildSlots is the slot count of every differential test's builds.
const buildSlots = 4

// pipelineBuild is one compiled FPISA configuration.
type pipelineBuild struct {
	name    string
	mode    Mode
	arch    pisa.Arch
	modules int
	proto   *PipelineAggregator
}

// pipelineBuilds compiles every architecture × mode × module count the
// builder accepts — full FPISA needs the extended architecture, the base
// architecture fits one module — and names each mode-arch[-mN].
func pipelineBuilds(t testing.TB) (builds []pipelineBuild) {
	for _, arch := range []pisa.Arch{pisa.BaseArch(), pisa.ExtendedArch()} {
		for _, mode := range []Mode{ModeApprox, ModeFull} {
			for modules := 1; modules <= MaxModules(arch); modules++ {
				pa, err := NewPipelineAggregator(DefaultFP32(mode), modules, buildSlots, arch)
				if err != nil {
					continue
				}
				name := map[Mode]string{ModeApprox: "approx", ModeFull: "full"}[mode] + "-" +
					strings.TrimPrefix(arch.Name, "tofino-like-")
				if modules > 1 {
					name += fmt.Sprintf("-m%d", modules)
				}
				builds = append(builds, pipelineBuild{name: name, mode: mode, arch: arch, modules: modules, proto: pa})
			}
		}
	}
	if len(builds) != 7 { // base: approx×1; extended: approx×3 + full×3
		t.Fatalf("%d FPISA configurations compiled, want 7", len(builds))
	}
	return builds
}

// inDomain reports whether an FP32 read-out lies where the compiled
// program assembles it correctly: zero or normal. BuildProgram mis-assembles
// a subnormal read-out and wraps one that overflows the exponent instead of
// saturating it to ±Inf, and it carries no NaN.
func inDomain(bits uint32) bool {
	exp := bits >> 23 & 0xff
	return exp != 0xff && (exp != 0 || bits<<1 == 0)
}

// readSlot writes slot idx's read-out into out, as a read would, and
// returns the OR of its modules' sticky overflow flags.
func readSlot(pa *ProfileAggregator, idx int, out []byte) (ovf bool) {
	w := pa.prof.ValueBytes()
	for k := 0; k < pa.modules; k++ {
		if pa.readOut(idx*pa.modules+k, k, w, out) {
			ovf = true
		}
	}
	return ovf
}

// runPipelineDiff decodes an operation sequence from ops and drives it
// through a replica of b's compiled pipeline and through the accumulator
// bank that serves the same Config (ProfileAggregator). An op octet picks
// the slot (bits 0–1), the operation (bits 2–4: 0–2 set, 3–4 add, 5 a
// cancelling add, 6 read, 7 read-reset), how many of a set's or add's
// values it leaves out (bits 5–6, modulo the module count; the wire
// zero-fills a short chunk) and whether it emits or absorbs (bit 7: a nil
// out). Each value follows as streamValue decodes it, except that a
// cancelling add's value is its module's negated read-out with fraction
// bits flipped by an octet at a bit offset (the next two octets), which
// leaves residues whose leading one lands anywhere in the mantissa
// register. After every emitting operation the value bytes of each module
// and the overflow bit must be identical, within the program's domain: a
// module whose accumulator read-out is subnormal, ±Inf or NaN is not
// compared, nor is the overflow bit (an OR over the modules) beside it,
// and the slot is reset on both sides before the next operation.
func runPipelineDiff(t testing.TB, b pipelineBuild, ops []byte) {
	pipe := b.proto.Replicate()
	acc, err := NewProfileAggregator(DefaultProfile, b.mode, b.modules, buildSlots, b.arch)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	next := func() byte {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return ops[pos-1]
	}
	vals := make([]float32, b.modules)
	got, want, state := make([]byte, 4*b.modules), make([]byte, 4*b.modules), make([]byte, 4*b.modules)
	for step := 0; pos < len(ops); step++ {
		op := next()
		slot := int(op) % buildSlots
		kind := (op >> 2) % 8
		outP, outA := got, want
		if op&0x80 != 0 {
			outP, outA = nil, nil
		}
		clear(vals)
		var in []byte
		var ovfP, ovfA bool
		var errP, errA error
		switch {
		case kind < 6:
			readSlot(acc, slot, state)
			for k := range vals[:b.modules-int(op>>5&3)%b.modules] {
				if kind == 5 {
					flip := uint32(next()) << (next() % 23) & (1<<23 - 1)
					vals[k] = math.Float32frombits(binary.BigEndian.Uint32(state[4*k:]) ^ 1<<31 ^ flip)
				} else {
					vals[k] = streamValue(next)
				}
			}
			in = wire32(vals...)
			if kind < 3 {
				ovfP, errP = pipe.SetInto(slot, in, outP)
				ovfA, errA = acc.SetInto(slot, in, outA)
			} else {
				ovfP, errP = pipe.AddInto(slot, in, outP)
				ovfA, errA = acc.AddInto(slot, in, outA)
			}
		case kind == 6:
			ovfP, errP = pipe.ReadInto(slot, outP)
			if outA != nil {
				ovfA = readSlot(acc, slot, outA)
			}
		default:
			ovfP, errP = pipe.ReadResetInto(slot, outP)
			ovfA, errA = acc.ReadResetInto(slot, outA)
		}
		if errP != nil || errA != nil {
			t.Fatalf("%s step %d: %v / %v", b.name, step, errP, errA)
		}
		readSlot(acc, slot, state) // what the slot reads out now, on the accumulator
		domain := true
		for k := 0; k < b.modules; k++ {
			v := binary.BigEndian.Uint32(state[4*k:])
			if !inDomain(v) {
				domain = false
				continue
			}
			if outP != nil && !bytes.Equal(got[4*k:4*k+4], want[4*k:4*k+4]) {
				t.Fatalf("%s step %d (op %#x slot %d vals %x): module %d pipeline %x, accumulator %x",
					b.name, step, op, slot, in, k, got[4*k:4*k+4], want[4*k:4*k+4])
			}
		}
		if outP == nil && (ovfP || ovfA) {
			t.Fatalf("%s step %d: an absorbed operation reported overflow (%v / %v)", b.name, step, ovfP, ovfA)
		}
		if domain && ovfP != ovfA {
			t.Fatalf("%s step %d (op %#x slot %d vals %x): overflow bit pipeline %v, accumulator %v",
				b.name, step, op, slot, in, ovfP, ovfA)
		}
		if !domain {
			if _, err := pipe.ReadResetInto(slot, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := acc.ReadResetInto(slot, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// pipelineDiffOps returns a run of same-exponent full-mantissa adds into
// slot 0, which overflows every module's mantissa register, followed by a
// seeded random operation stream.
func pipelineDiffOps(seed int64, modules int) (ops []byte) {
	for i := 0; i < 200; i++ {
		ops = append(ops, 0x0c) // an emitting add into slot 0, every module
		for k := 0; k < modules; k++ {
			ops = append(ops, 0x04, 0x7f, 0xff, 0xff) // biased exponent 100, every fraction bit
		}
	}
	random := make([]byte, 20000)
	rand.New(rand.NewSource(seed)).Read(random)
	return append(ops, random...)
}

// TestPipelineEquivalence is the differential that lets the accumulator
// serve every profile: on every compiled configuration the pipeline and the
// accumulator bank answer every set, add, read and read-reset, emitting or
// absorbing, with the same wire bytes and overflow bit wherever the
// program is defined (runPipelineDiff).
func TestPipelineEquivalence(t *testing.T) {
	for _, b := range pipelineBuilds(t) {
		t.Run(b.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				runPipelineDiff(t, b, pipelineDiffOps(seed, b.modules))
			}
		})
	}
}

// FuzzPipelineMatchesAccumulator lets the fuzzer pick the operation
// sequence of TestPipelineEquivalence; the first byte picks the
// configuration.
func FuzzPipelineMatchesAccumulator(f *testing.F) {
	builds := pipelineBuilds(f)
	f.Add([]byte{0, 0x00, 0x02, 0x7f, 0xff, 0xff, 0x0c, 0x82, 0, 0, 1, 0x18, 0x98})    // a set, a denormal add, a read
	f.Add([]byte{3, 0x6c, 0x04, 0x7f, 0xff, 0xff, 0x8c, 0x03, 0x12, 0x34, 0x56, 0x1c}) // a short add, an absorbed add
	f.Add(append([]byte{6}, pipelineDiffOps(1, 3)[:2000]...))                          // a register overflow
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		runPipelineDiff(t, builds[int(data[0])%len(builds)], data[1:])
	})
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
