package aggservice

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fpisa/internal/allocgate"
	"fpisa/internal/core"
	"fpisa/internal/pisa"
)

// benchShape is the switch shape of the benchmark's training workloads: 2
// workers, Pool 64 over 2 shards, one module on the base architecture.
func benchShape() Config {
	return Config{Workers: 2, Pool: 64, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
}

// TestNewSwitchCompilesOncePerShape bounds what a second switch of an
// already-built shape allocates. Compiling the FPISA program alone costs
// well over a thousand allocations (BuildProgram plus pisa.New); a switch
// whose shape is in the compile table pays only for its shards, its job's
// banks and their scheduler state.
func TestNewSwitchCompilesOncePerShape(t *testing.T) {
	cfg := benchShape()
	allocgate.AtMost(t, "NewSwitch of a compiled shape", 60, func() {
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw.Close()
	})
}

// TestRefusedShapeRefusedAgain checks that a refusal is never remembered as
// a success: every shape the switch cannot hold is refused, with the same
// error, on two consecutive calls.
func TestRefusedShapeRefusedAgain(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"full FPISA on the base arch",
			Config{Workers: 1, Pool: 1, Modules: 1, Mode: core.ModeFull, Arch: pisa.BaseArch()},
			"full FPISA needs the RSAW"},
		{"modules beyond MaxModules",
			Config{Workers: 1, Pool: 1, Modules: core.MaxModules(pisa.BaseArch()) + 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()},
			"modules requested"},
		// 65536 slots in one bank: only pisa.New's stage check refuses it.
		{"register SRAM beyond a stage",
			Config{Workers: 1, Pool: 32768, Modules: 1, Shards: 1, Mode: core.ModeApprox, Arch: pisa.BaseArch()},
			"stage 2 over budget: SRAM blocks 162 > 80"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var errs [2]string
			for i := range errs {
				sw, err := NewSwitch(tc.cfg)
				if err == nil {
					sw.Close()
					t.Fatalf("call %d accepted the shape", i+1)
				}
				errs[i] = err.Error()
			}
			if !strings.Contains(errs[0], tc.want) {
				t.Errorf("error %q does not say %q", errs[0], tc.want)
			}
			if errs[0] != errs[1] {
				t.Errorf("second refusal %q differs from the first %q", errs[1], errs[0])
			}
		})
	}
}

// TestCompileKeysOnSlots checks that the slot count is part of the compile
// key: two shapes that differ only in a bank's slots report different
// register SRAM.
func TestCompileKeysOnSlots(t *testing.T) {
	small, large := benchShape(), benchShape()
	large.Pool = 8192 // 8192 slots per bank, against 64
	a, err := NewSwitch(small)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewSwitch(large)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sram := func(u pisa.Utilization) []int {
		var blocks []int
		for _, st := range u.Stages {
			blocks = append(blocks, st.SRAMBlocks)
		}
		return blocks
	}
	if sa, sb := sram(a.Utilization()), sram(b.Utilization()); reflect.DeepEqual(sa, sb) {
		t.Fatalf("64 and 8192 slots per bank report the same SRAM row %v", sa)
	}
}

// TestUtilizationIsACopy checks that switches sharing a compiled shape do
// not share a mutable report.
func TestUtilizationIsACopy(t *testing.T) {
	a, err := NewSwitch(benchShape())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewSwitch(benchShape())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	want := b.Utilization()
	want.Stages = slices.Clone(want.Stages) // a snapshot, whatever b returns
	u := a.Utilization()
	for i := range u.Stages {
		u.Stages[i] = pisa.StageUsage{SRAMBlocks: -1}
	}
	if got := b.Utilization(); !reflect.DeepEqual(got, want) {
		t.Fatalf("changing one switch's report changed another's:\n got %v\nwant %v", got.Stages, want.Stages)
	}
	if got := a.Utilization(); !reflect.DeepEqual(got, want) {
		t.Fatalf("changing a returned report changed the switch's own:\n got %v\nwant %v", got.Stages, want.Stages)
	}
}

// TestConcurrentCompile builds switches of two shapes from several
// goroutines at once; every switch reports what a fresh compile of its shape
// reports.
func TestConcurrentCompile(t *testing.T) {
	shapes := []Config{benchShape(), benchShape()}
	shapes[1].Pool = 96
	want := make([]pisa.Utilization, len(shapes))
	for i, cfg := range shapes {
		prog, _, err := core.BuildProgram(core.DefaultFP32(cfg.Mode), cfg.Modules, cfg.Pool, cfg.Arch)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := pisa.New(prog, cfg.Arch)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sw.Utilization()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(shapes)
			sw, err := NewSwitch(shapes[i])
			if err != nil {
				t.Error(err)
				return
			}
			defer sw.Close()
			if got := sw.Utilization(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("shape %d: report %v, want %v", i, got.Stages, want[i].Stages)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkNewSwitch times a warm NewSwitch (its shape already compiled) and
// the warm compile lookup on the smallest and largest training shapes.
func BenchmarkNewSwitch(b *testing.B) {
	for _, bc := range []struct {
		name    string
		arch    pisa.Arch
		modules int
	}{
		{"base-m1", pisa.BaseArch(), 1},
		{"ext-m3", pisa.ExtendedArch(), 3},
	} {
		cfg := benchShape()
		cfg.Arch, cfg.Modules = bc.arch, bc.modules
		// Pool 64 over 2 shards: a bank holds Pool slots.
		if _, err := compile(cfg, cfg.Pool); err != nil {
			b.Fatal(err)
		}
		b.Run("switch/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sw, err := NewSwitch(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sw.Close()
			}
		})
		b.Run("compile/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := compile(cfg, cfg.Pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
