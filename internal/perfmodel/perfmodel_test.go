package perfmodel

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"fpisa/internal/gradients"
	"fpisa/internal/payload"
)

func TestFig10CoreCounts(t *testing.T) {
	r := DefaultRates()
	// Paper §5.2.3: SwitchML/CPU needs 4 cores for 92 Gbps; FPISA-A/CPU
	// needs 3 (25% fewer); FPISA-A/CPU(Opt) needs 1 (75% fewer).
	if c := r.CoresToLineRate(SwitchMLCPU, 16<<10); c != 4 {
		t.Errorf("SwitchML/CPU cores = %d, want 4", c)
	}
	if c := r.CoresToLineRate(FPISACPU, 16<<10); c != 3 {
		t.Errorf("FPISA-A/CPU cores = %d, want 3", c)
	}
	if c := r.CoresToLineRate(FPISACPUOpt, 16<<10); c != 1 {
		t.Errorf("FPISA-A/CPU(Opt) cores = %d, want 1", c)
	}
}

func TestFig10FewerCoresClaim(t *testing.T) {
	// The abstract's 25–75% fewer cores.
	r := DefaultRates()
	sml := r.CoresToLineRate(SwitchMLCPU, 16<<10)
	lo := float64(sml-r.CoresToLineRate(FPISACPU, 16<<10)) / float64(sml)
	hi := float64(sml-r.CoresToLineRate(FPISACPUOpt, 16<<10)) / float64(sml)
	if math.Abs(lo-0.25) > 1e-9 || math.Abs(hi-0.75) > 1e-9 {
		t.Errorf("fewer-cores range = %.0f%%..%.0f%%, want 25%%..75%%", lo*100, hi*100)
	}
}

func TestFig10GPUShapes(t *testing.T) {
	r := DefaultRates()
	// SwitchML/GPU is inefficient below 256 KB messages and extra cores
	// don't help (CUDA launch serialization).
	small := r.Goodput(SwitchMLGPU, 4, 16<<10)
	if small > 15 {
		t.Errorf("SwitchML/GPU at 16KB = %.1f Gbps, should be launch-bound", small)
	}
	if r.Goodput(SwitchMLGPU, 8, 16<<10) != small {
		t.Error("extra cores helped SwitchML/GPU despite launch serialization")
	}
	big := r.Goodput(SwitchMLGPU, 4, 1<<20)
	fpGPU := r.Goodput(FPISAGPU, 1, 1<<20)
	// At 1MB messages SwitchML/GPU is comparable but still below
	// FPISA-A/GPU (§5.2.3).
	if big >= fpGPU {
		t.Errorf("SwitchML/GPU at 1MB (%.1f) should stay below FPISA-A/GPU (%.1f)", big, fpGPU)
	}
	if big < 0.85*fpGPU {
		t.Errorf("SwitchML/GPU at 1MB (%.1f) should be comparable to FPISA-A/GPU (%.1f)", big, fpGPU)
	}
	// FPISA-A/GPU performs well from 4KB with one core (copy batching),
	// limited only by the bidirectional copy bandwidth.
	if g := r.Goodput(FPISAGPU, 1, 4<<10); g != r.GPUCopyCapGbps {
		t.Errorf("FPISA-A/GPU at 4KB = %.1f, want copy cap %.1f", g, r.GPUCopyCapGbps)
	}
}

func TestFig10CurvesMonotone(t *testing.T) {
	r := DefaultRates()
	for _, s := range Fig10Left(r, 10) {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s not monotone at %g cores", s.Name, s.X[i])
			}
		}
	}
	right := Fig10Right(r, Fig10Sizes())
	if len(right) != 5 {
		t.Fatalf("fig10 right has %d series", len(right))
	}
}

// paperNs is host ns per element in the ratios of the paper's per-core
// goodputs.
func paperNs() map[System]float64 {
	return map[System]float64{SwitchMLCPU: 1 / 24.5, FPISACPU: 1.0 / 33, FPISACPUOpt: 1.0 / 95}
}

func TestMeasuredRatesReproducePaper(t *testing.T) {
	r, err := MeasuredRates(paperNs())
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultRates()
	for _, c := range []struct {
		sys       System
		got, want float64
		cores     int
	}{
		{SwitchMLCPU, r.SwitchMLCPUPerCore, d.SwitchMLCPUPerCore, 4},
		{FPISACPU, r.FPISACPUPerCore, d.FPISACPUPerCore, 3},
		{FPISACPUOpt, r.FPISAOptPerCore, d.FPISAOptPerCore, 1},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s per core = %g, DefaultRates has %g", c.sys.Name(), c.got, c.want)
		}
		if n := r.CoresToLineRate(c.sys, 16<<10); n != c.cores {
			t.Errorf("%s cores to line rate = %d, want %d", c.sys.Name(), n, c.cores)
		}
	}
}

func TestMeasuredRatesMoveOnlyTheSlowedSystem(t *testing.T) {
	ns := paperNs()
	base, err := MeasuredRates(ns)
	if err != nil {
		t.Fatal(err)
	}
	ns[SwitchMLCPU] *= 2
	slow, err := MeasuredRates(ns)
	if err != nil {
		t.Fatal(err)
	}
	if b, s := base.CoresToLineRate(SwitchMLCPU, 16<<10), slow.CoresToLineRate(SwitchMLCPU, 16<<10); s <= b {
		t.Errorf("doubling SwitchML's cost left its cores to line rate at %d (was %d)", s, b)
	}
	for _, sys := range []System{FPISACPU, FPISACPUOpt, FPISAGPU, SwitchMLGPU} {
		for c := 1; c <= 10; c++ {
			if g, want := slow.Goodput(sys, c, 16<<10), base.Goodput(sys, c, 16<<10); g != want {
				t.Errorf("%s at %d cores moved from %g to %g", sys.Name(), c, want, g)
			}
		}
	}
}

func TestMeasuredRatesRejectMissingCost(t *testing.T) {
	for _, sys := range CPUSystems() {
		ns := paperNs()
		delete(ns, sys)
		if _, err := MeasuredRates(ns); err == nil {
			t.Errorf("no cost for %s accepted", sys.Name())
		}
		ns[sys] = 0
		if _, err := MeasuredRates(ns); err == nil {
			t.Errorf("zero cost for %s accepted", sys.Name())
		}
	}
}

// TestHostWork checks that each CPU system's host work does what its
// kernels promise: SwitchML round-trips within one quantization step,
// FPISA-A/CPU exactly through big-endian wire values, and the Opt copy
// leaves native little-endian floats on the wire.
func TestHostWork(t *testing.T) {
	src := gradients.NewGenerator(gradients.VGG19, 3).WorkerGradients(1, 64)[0]
	step := math.Ldexp(1, -payload.ScaleExpFor(payload.MaxBiasedExp(src), hostWorkers))
	for _, sys := range CPUSystems() {
		wire := make([]byte, 4*len(src))
		dst := make([]float32, len(src))
		if err := HostWork(sys, wire, dst, src); err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		for i, v := range src {
			var ok bool
			switch sys {
			case SwitchMLCPU:
				ok = math.Abs(float64(dst[i]-v)) <= step
			case FPISACPU:
				ok = dst[i] == v && binary.BigEndian.Uint32(wire[4*i:]) == math.Float32bits(v)
			case FPISACPUOpt:
				ok = dst[i] == 0 && binary.LittleEndian.Uint32(wire[4*i:]) == math.Float32bits(v)
			}
			if !ok {
				t.Fatalf("%s elem %d: %g -> wire % x -> %g", sys.Name(), i, v, wire[4*i:4*i+4], dst[i])
			}
		}
		if err := HostWork(sys, wire[:4*len(src)-1], dst, src); err == nil {
			t.Errorf("%s accepted a short wire", sys.Name())
		}
	}
	if err := HostWork(FPISAGPU, make([]byte, 4), make([]float32, 1), []float32{1}); err == nil {
		t.Error("a GPU system ran host work")
	}
}

func TestFig11ShapeMatchesPaper(t *testing.T) {
	two := Fig11(2)
	eight := Fig11(8)
	byName := func(s []Speedup, name string) Speedup {
		for _, x := range s {
			if x.Model == name {
				return x
			}
		}
		t.Fatalf("model %s missing", name)
		return Speedup{}
	}

	// Headline: DeepLight ~85.9% at 2 cores.
	if dl := byName(two, "DeepLight"); math.Abs(dl.SpeedupPct-85.9) > 12 {
		t.Errorf("DeepLight 2-core speedup = %.1f%%, paper 85.9%%", dl.SpeedupPct)
	}
	// VGG19 ~20.3% at 2 cores.
	if v := byName(two, "VGG19"); math.Abs(v.SpeedupPct-20.3) > 8 {
		t.Errorf("VGG19 2-core speedup = %.1f%%, paper 20.3%%", v.SpeedupPct)
	}
	// LSTM ~56.3% / 16.7%.
	if l := byName(two, "LSTM"); math.Abs(l.SpeedupPct-56.3) > 12 {
		t.Errorf("LSTM 2-core = %.1f%%, paper 56.3%%", l.SpeedupPct)
	}
	if l := byName(eight, "LSTM"); math.Abs(l.SpeedupPct-16.7) > 8 {
		t.Errorf("LSTM 8-core = %.1f%%, paper 16.7%%", l.SpeedupPct)
	}

	for i, p := range gradients.All() {
		two_, eight_ := two[i], eight[i]
		// 2-core speedups dominate 8-core ones (the paper's key reading).
		if two_.SpeedupPct+1e-9 < eight_.SpeedupPct-2 {
			t.Errorf("%s: 2-core %.1f%% < 8-core %.1f%%", p.Name, two_.SpeedupPct, eight_.SpeedupPct)
		}
		// Compute-bound models gain little.
		if !two_.CommBound && two_.SpeedupPct > 8 {
			t.Errorf("%s is compute-bound but gained %.1f%%", p.Name, two_.SpeedupPct)
		}
		// Communication-bound models gain substantially at 2 cores.
		if two_.CommBound && two_.SpeedupPct < 15 {
			t.Errorf("%s is comm-bound but gained only %.1f%%", p.Name, two_.SpeedupPct)
		}
		if two_.SpeedupPct < -1 || eight_.SpeedupPct < -1 {
			t.Errorf("%s: negative speedup", p.Name)
		}
	}
}

func TestFormatFig11(t *testing.T) {
	s := FormatFig11()
	for _, want := range []string{"DeepLight", "MobileNetV2", "2-core", "8-core"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestGoodputEdgeCases(t *testing.T) {
	r := DefaultRates()
	if r.Goodput(SwitchMLCPU, 0, 1024) != 0 {
		t.Error("zero cores should yield zero")
	}
	if r.Goodput(System(99), 4, 1024) != 0 {
		t.Error("unknown system should yield zero")
	}
	for _, sys := range AllSystems() {
		if sys.Name() == "" {
			t.Error("unnamed system")
		}
		if g := r.Goodput(sys, 10, 1<<20); g > r.MaxGoodputGbps {
			t.Errorf("%s exceeds line rate: %g", sys.Name(), g)
		}
	}
}
