package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fpisa/internal/pisa"
)

const setDiffSlots = 4

// setDiffBuild is one compiled FPISA configuration.
type setDiffBuild struct {
	name    string
	modules int
	proto   *PipelineAggregator
}

// setDiffBuilds compiles every architecture × mode × module count the
// builder accepts (full FPISA needs the extended architecture, the base
// architecture fits one module).
func setDiffBuilds(t testing.TB) (builds []setDiffBuild) {
	for _, arch := range []pisa.Arch{pisa.BaseArch(), pisa.ExtendedArch()} {
		for _, mode := range []Mode{ModeApprox, ModeFull} {
			for modules := 1; modules <= MaxModules(arch); modules++ {
				pa, err := NewPipelineAggregator(DefaultFP32(mode), modules, setDiffSlots, arch)
				if err != nil {
					continue
				}
				builds = append(builds, setDiffBuild{
					name: fmt.Sprintf("%s/%v/m%d", arch.Name, mode, modules), modules: modules, proto: pa,
				})
			}
		}
	}
	if len(builds) < 7 { // base: approx×1; extended: approx×3 + full×3
		t.Fatalf("only %d FPISA configurations compiled", len(builds))
	}
	return builds
}

// setDiffValue decodes one input value from at most five bytes of the op
// stream: a class octet, then the bits the class leaves free. The classes
// are the inputs the first ADD of a slot treats specially — ±0, denormals
// (effective exponent 1), exponents at and just past the FPISA-A headroom,
// where exp_set's predicate flips — plus the whole bit-pattern space and a
// mid range in which sums stay finite.
func setDiffValue(next func() byte) float32 {
	class := next()
	sign := uint32(class>>7) << 31
	frac := uint32(next())<<16 | uint32(next())<<8 | uint32(next())
	frac &= 1<<23 - 1
	switch class % 6 {
	case 0:
		return math.Float32frombits(sign)
	case 1:
		return math.Float32frombits(sign | frac) // denormal
	case 2:
		exp := 1 + uint32(class>>3&0xF)%uint32(DefaultProfile.Headroom()+2) // 1..H+2
		return math.Float32frombits(sign | exp<<23 | frac)
	case 3:
		return math.Float32frombits(uint32(next())<<24 | uint32(class&0x80)<<16 | frac) // any exponent
	default:
		exp := 100 + uint32(class>>3&0xF)*4 // 100..160: gaps beyond the headroom
		return math.Float32frombits(sign | exp<<23 | frac)
	}
}

// runSetDiff decodes an operation sequence from ops and drives two replicas
// of b through it: set runs every first-ADD as one SetInto pass, twin as
// ReadResetInto + AddInto. Plain adds, reads and read-resets interleave on
// the same few slots. After every operation the responses (the value bytes
// and the overflow bit) and all four register arrays — the add counter
// among them — must be identical.
func runSetDiff(t testing.TB, b setDiffBuild, ops []byte) {
	set, twin := b.proto.Replicate(), b.proto.Replicate()
	pos := 0
	next := func() byte {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return ops[pos-1]
	}
	regs := []string{"cnt_reg"}
	for k := 0; k < b.modules; k++ {
		regs = append(regs, fmt.Sprintf("exp_reg_%d", k), fmt.Sprintf("man_reg_%d", k), fmt.Sprintf("ovf_reg_%d", k))
	}
	vals := make([]float32, b.modules)
	got, want := make([]byte, 4*b.modules), make([]byte, 4*b.modules)
	for step := 0; pos < len(ops); step++ {
		op := next()
		slot := int(op) % setDiffSlots
		kind := (op >> 2) % 8
		var ovfSet, ovfTwin bool
		var errSet, errTwin error
		switch {
		case kind < 6: // 0..2 set, 3..5 add
			for k := range vals {
				vals[k] = setDiffValue(next)
			}
			in := wire32(vals[:1+int(op>>5)%b.modules]...) // short packets zero-fill the rest
			if kind < 3 {
				ovfSet, errSet = set.SetInto(slot, in, got)
				if _, errTwin = twin.ReadResetInto(slot, nil); errTwin == nil {
					ovfTwin, errTwin = twin.AddInto(slot, in, want)
				}
			} else {
				ovfSet, errSet = set.AddInto(slot, in, got)
				ovfTwin, errTwin = twin.AddInto(slot, in, want)
			}
		case kind == 6:
			ovfSet, errSet = set.ReadInto(slot, got)
			ovfTwin, errTwin = twin.ReadInto(slot, want)
		default:
			ovfSet, errSet = set.ReadResetInto(slot, got)
			ovfTwin, errTwin = twin.ReadResetInto(slot, want)
		}
		if errSet != nil || errTwin != nil {
			t.Fatalf("%s step %d: %v / %v", b.name, step, errSet, errTwin)
		}
		// Compare wire bytes, not floats: NaN results must match too.
		if !bytes.Equal(got, want) || ovfSet != ovfTwin {
			t.Fatalf("%s step %d (op %#x slot %d vals %x): set %x/%v, reset+add %x/%v",
				b.name, step, op, slot, wire32(vals...), got, ovfSet, want, ovfTwin)
		}
		for _, name := range regs {
			a, errA := set.Switch().RegisterSnapshot(name)
			c, errC := twin.Switch().RegisterSnapshot(name)
			if errA != nil || errC != nil {
				t.Fatal(errA, errC)
			}
			if !reflect.DeepEqual(a, c) {
				t.Fatalf("%s step %d (op %#x slot %d): %s set %x, reset+add %x", b.name, step, op, slot, name, a, c)
			}
		}
	}
}

// TestSetEqualsResetAdd is the bind-by-overwrite contract: on every
// compiled configuration, one PktSet pass leaves the response and the
// registers bit-for-bit as a read-reset pass followed by an add pass does.
func TestSetEqualsResetAdd(t *testing.T) {
	for _, b := range setDiffBuilds(t) {
		for _, seed := range []int64{1, 2, 3} {
			ops := make([]byte, 6000)
			rand.New(rand.NewSource(seed)).Read(ops)
			runSetDiff(t, b, ops)
		}
	}
}

// FuzzSetEqualsResetAdd lets the fuzzer pick the operation sequence; the
// first byte picks the configuration.
func FuzzSetEqualsResetAdd(f *testing.F) {
	builds := setDiffBuilds(f)
	f.Add([]byte{0, 0x00, 0x02, 0x7f, 0xff, 0xff, 0x0c, 0x82, 0, 0, 1, 0x18})
	f.Add([]byte{3, 0x01, 0x0a, 0, 0, 0, 0x01, 0x03, 0x12, 0x34, 0x56, 0x7f, 0x1d})
	f.Add([]byte{6, 0x42, 0x04, 0x40, 0, 0, 0x0d, 0x80, 0, 0, 0, 0x0e, 0xff, 0xff, 0xff, 0x46, 0x1a})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		runSetDiff(t, builds[int(data[0])%len(builds)], data[1:])
	})
}
