package pisa_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpisa/internal/allocgate"
	"fpisa/internal/core"
	"fpisa/internal/pisa"
)

// fpisaBuilds lists every FPISA program shape the repo compiles: mode ×
// architecture × modules 1–3 (full FPISA needs the extended architecture's
// RSAW unit, and the base architecture fits one module per pipeline).
func fpisaBuilds(t *testing.T) (builds []fpisaBuild) {
	for _, mode := range []core.Mode{core.ModeApprox, core.ModeFull} {
		for _, arch := range []pisa.Arch{pisa.BaseArch(), pisa.ExtendedArch()} {
			for modules := 1; modules <= 3; modules++ {
				pa, err := core.NewPipelineAggregator(core.DefaultFP32(mode), modules, fpisaSlots, arch)
				if err != nil {
					continue
				}
				prog, _, err := core.BuildProgram(core.DefaultFP32(mode), modules, fpisaSlots, arch)
				if err != nil {
					t.Fatal(err)
				}
				builds = append(builds, fpisaBuild{
					name: fmt.Sprintf("%v/%s/m%d", mode, arch.Name, modules),
					arch: arch, modules: modules, pa: pa, prog: prog,
				})
			}
		}
	}
	if len(builds) < 5 {
		t.Fatalf("only %d FPISA programs compiled", len(builds))
	}
	return builds
}

const fpisaSlots = 8

type fpisaBuild struct {
	name    string
	arch    pisa.Arch
	modules int
	pa      *core.PipelineAggregator
	prog    pisa.Program
}

// fpisaValue draws from the whole float32 input space, weighted toward the
// cases the pipeline treats specially.
func fpisaValue(rng *rand.Rand) float32 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31) // denormal
	case 3:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 4:
		return float32(math.NaN())
	case 5:
		return math.MaxFloat32 * float32(1-2*rng.Intn(2))
	case 6, 7:
		return math.Float32frombits(rng.Uint32()) // any bit pattern
	default:
		return float32(rng.NormFloat64()) * float32(math.Ldexp(1, rng.Intn(40)-20))
	}
}

// TestDifferentialFPISAPrograms runs seeded ADD/SET/READ/READ_RESET mixes over
// random slots and values — ±0, denormals, ±Inf, NaN, arbitrary bit
// patterns, and long same-sign runs into one slot that overflow the
// mantissa register — through the production and the reference executor on
// every FPISA program, requiring identical bytes, registers, counters,
// table statistics and traces (pisa.DiffRun).
func TestDifferentialFPISAPrograms(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", b.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var pkts []pisa.DiffPacket
				emit := func(op byte, slot uint32, vals []float32) {
					pkt, err := b.pa.Packet(op, slot, vals)
					if err != nil {
						t.Fatal(err)
					}
					pkts = append(pkts, pisa.DiffPacket{Port: 1, Data: pkt})
				}
				vals := make([]float32, b.modules)
				for len(pkts) < 1500 {
					slot := uint32(rng.Intn(fpisaSlots))
					switch r := rng.Intn(100); {
					case r < 3:
						// Overflow-provoking run: one large value, one slot.
						for k := range vals {
							vals[k] = float32(math.Ldexp(1.5, 60+k)) * float32(1-2*rng.Intn(2))
						}
						for i := 0; i < 200; i++ {
							emit(core.PktAdd, slot, vals)
						}
					case r < 70:
						for k := range vals {
							vals[k] = fpisaValue(rng)
						}
						op := byte(core.PktAdd)
						if r < 15 {
							op = core.PktSet
						}
						emit(op, slot, vals[:1+rng.Intn(b.modules)])
					case r < 84:
						emit(core.PktRead, slot, nil)
					case r < 98:
						emit(core.PktReadReset, slot, nil)
					default:
						emit(4, slot, nil) // no such operation
					}
				}
				pisa.DiffRun(t, b.prog, b.arch, nil, pkts)
			})
		}
	}
}

// TestProcessScratchAllocatesNothing gates the executor's steady state on
// every FPISA program: parse, every stage's write set, unicast egress and
// deparse all run on switch-owned scratch.
func TestProcessScratchAllocatesNothing(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		ops := []byte{core.PktAdd, core.PktRead, core.PktReadReset, core.PktSet}
		pkts := make([][]byte, len(ops)*fpisaSlots)
		for i := range pkts {
			op := ops[i%len(ops)]
			vals := make([]float32, b.modules)
			for k := range vals {
				vals[k] = float32(i + k)
			}
			var err error
			if pkts[i], err = b.pa.Packet(op, uint32(i%fpisaSlots), vals); err != nil {
				t.Fatal(err)
			}
		}
		sw, n := b.pa.Switch(), 0
		allocgate.AtMost(t, "ProcessScratch on "+b.name, 0, func() {
			if out, err := sw.ProcessScratch(1, pkts[n%len(pkts)]); err != nil || len(out) != 1 {
				t.Fatalf("%d emissions, %v", len(out), err)
			}
			n++
		})
	}
}
