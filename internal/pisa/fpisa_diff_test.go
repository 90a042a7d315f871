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
func fpisaBuilds(t testing.TB) (builds []fpisaBuild) {
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
// every FPISA program, requiring identical bytes, registers, counters and
// table statistics (pisa.DiffRun).
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

// fpisaClasses is how many input classes fpisaClassValue decodes.
const fpisaClasses = 7

// fpisaClassValue decodes one input value from the stream: a class octet
// (class = octet % fpisaClasses, sign = its top bit), then three octets of
// fraction. The classes are core's set_test.go inputs — the values the
// pipeline treats specially — plus the non-finite bit patterns.
func fpisaClassValue(next func() byte) (float32, int) {
	class := next()
	sign := uint32(class>>7) << 31
	frac := (uint32(next())<<16 | uint32(next())<<8 | uint32(next())) & (1<<23 - 1)
	headroom := uint32(core.DefaultFP32(core.ModeApprox).Headroom())
	var bits uint32
	switch class % fpisaClasses {
	case 0: // ±0
		bits = sign
	case 1: // denormal: effective exponent 1
		bits = sign | frac
	case 2: // exponents 1..H+2, around where FPISA-A's overwrite predicate flips
		bits = sign | (1+uint32(class>>3&0xF)%(headroom+2))<<23 | frac
	case 3: // any exponent
		bits = sign | uint32(next())<<23 | frac
	case 4: // ±Inf
		bits = sign | 0xFF<<23
	case 5: // NaN payloads
		bits = sign | 0xFF<<23 | frac | 1
	default: // 100..160: gaps beyond the headroom between successive values
		bits = sign | (100+uint32(class>>3&0xF)*4)<<23 | frac
	}
	return math.Float32frombits(bits), int(class % fpisaClasses)
}

// fpisaStream decodes a packet sequence for build b from data. Per packet:
// an octet picking the opcode (its low three bits: 0..3 the operations, 4 no
// such operation, 5..7 folded onto 0..3) and the slot, an octet that one time
// in sixteen truncates the packet so the parser refuses it, then one
// fpisaClassValue per module. seen reports which (opcode, class) pairs of
// module 0 the stream carried untruncated.
func fpisaStream(t testing.TB, b fpisaBuild, data []byte) (pkts []pisa.DiffPacket, seen map[[2]int]bool) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	seen = make(map[[2]int]bool)
	vals := make([]float32, b.modules)
	for pos < len(data) {
		sel, cut := next(), next()
		op := sel & 7
		if op > 4 {
			op &= 3
		}
		var class0 int
		for k := range vals {
			var class int
			if vals[k], class = fpisaClassValue(next); k == 0 {
				class0 = class
			}
		}
		pkt, err := b.pa.Packet(op, uint32(sel>>3)%fpisaSlots, vals)
		if err != nil {
			t.Fatal(err)
		}
		if cut < 16 {
			pkt = pkt[:int(cut)*len(pkt)/16]
		} else {
			seen[[2]int{int(op), class0}] = true
		}
		pkts = append(pkts, pisa.DiffPacket{Port: uint16(cut) % 4, Data: pkt})
	}
	return pkts, seen
}

// TestPlanEqualsReferenceOnInputClasses drives every FPISA build with seeded
// fpisaStream sequences — all four opcodes and the unknown one, every input
// class, truncated packets — through the plan executor and the reference
// (pisa.DiffRun), and checks the sequences did carry every opcode × class
// pair.
func TestPlanEqualsReferenceOnInputClasses(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", b.name, seed), func(t *testing.T) {
				data := make([]byte, 12000)
				rand.New(rand.NewSource(seed)).Read(data)
				pkts, seen := fpisaStream(t, b, data)
				for op := 0; op <= 4; op++ {
					for class := 0; class < fpisaClasses; class++ {
						if !seen[[2]int{op, class}] {
							t.Errorf("stream never sent opcode %d with a class-%d value", op, class)
						}
					}
				}
				pisa.DiffRun(t, b.prog, b.arch, nil, pkts)
			})
		}
	}
}

// FuzzPlanEqualsReference lets the fuzzer write the fpisaStream; the first
// byte picks the build.
func FuzzPlanEqualsReference(f *testing.F) {
	builds := fpisaBuilds(f)
	f.Add([]byte{0, 0x03, 0xff, 0x02, 0x7f, 0xff, 0xff, 0x08, 0xff, 0x8e, 0, 0, 1})
	f.Add([]byte{4, 0x00, 0x20, 0x04, 0, 0, 0, 0x85, 0x12, 0x34, 0x56, 0x03, 0x40, 0, 0, 0x9a, 0x02, 0x20})
	f.Add([]byte{6, 0x0a, 0x05, 0x06, 0x40, 0, 0, 0x04, 0x30, 0x0d, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		b := builds[int(data[0])%len(builds)]
		pkts, _ := fpisaStream(t, b, data[1:])
		pisa.DiffRun(t, b.prog, b.arch, nil, pkts)
	})
}

// TestTableStatsParity compares every declared table's hit and miss counts
// between the plan executor and the reference after 1000 packets: on an FPISA
// program under mixed opcodes — always-tables, which the plan counts per run
// instead of per table, and keyed tables an unknown opcode misses with no
// default action — and on a keyed table whose misses run a default action.
func TestTableStatsParity(t *testing.T) {
	parity := func(t *testing.T, prog pisa.Program, arch pisa.Arch, pkts []pisa.DiffPacket) *pisa.Switch {
		sw, err := pisa.New(prog, arch)
		if err != nil {
			t.Fatal(err)
		}
		ref := sw.Replicate()
		for _, p := range pkts {
			_, gotErr := sw.ProcessScratch(p.Port, p.Data)
			_, wantErr := ref.RefProcess(p.Port, p.Data)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("packet % x: error %v, reference %v", p.Data, gotErr, wantErr)
			}
		}
		for _, tb := range prog.Tables {
			gh, gm, _ := sw.TableStats(tb.Name)
			wh, wm, _ := ref.TableStats(tb.Name)
			if gh != wh || gm != wm {
				t.Errorf("table %q: %d hits %d misses, reference %d/%d", tb.Name, gh, gm, wh, wm)
			}
		}
		return sw
	}

	t.Run("fpisa", func(t *testing.T) {
		b := fpisaBuilds(t)[0]
		data := make([]byte, 1000*(2+4*b.modules))
		rand.New(rand.NewSource(7)).Read(data)
		pkts, _ := fpisaStream(t, b, data)
		unknown, parsed := uint64(0), uint64(0)
		for _, p := range pkts {
			if len(p.Data) == core.PacketBytes(b.modules) {
				parsed++
				if p.Data[0] == 4 {
					unknown++
				}
			}
		}
		sw := parity(t, b.prog, b.arch, pkts)
		if hits, misses, _ := sw.TableStats("setup"); hits != parsed || misses != 0 {
			t.Errorf("always-table setup: %d hits %d misses, want %d/0", hits, misses, parsed)
		}
		if hits, misses, _ := sw.TableStats("cnt_op"); unknown == 0 || misses != unknown || hits != parsed-unknown {
			t.Errorf("cnt_op: %d hits %d misses, want %d/%d", hits, misses, parsed-unknown, unknown)
		}
	})

	t.Run("default-action", func(t *testing.T) {
		prog := pisa.Program{
			Fields: []pisa.FieldDecl{{Name: "k", Width: 8}, {Name: "out", Width: 8}},
			Parser: []pisa.ExtractDecl{{Field: "k", Offset: 0, Bytes: 1}, {Field: "out", Offset: 1, Bytes: 1}},
			Tables: []pisa.TableDecl{{
				Name: "t", Stage: 0, Kind: pisa.MatchExact, Key: []string{"k"},
				Actions: []pisa.ActionDecl{
					{Name: "hit", Instrs: []pisa.Instr{{Op: pisa.OpMov, Dst: "out", A: pisa.Imm(1)}}},
					{Name: "miss", Instrs: []pisa.Instr{{Op: pisa.OpMov, Dst: "out", A: pisa.Imm(2)}}},
				},
				Entries: []pisa.EntryDecl{{Value: 0, Action: "hit"}, {Value: 3, Action: "hit"}},
				Default: "miss",
			}},
		}
		rng := rand.New(rand.NewSource(7))
		pkts := make([]pisa.DiffPacket, 1000)
		for i := range pkts {
			pkts[i] = pisa.DiffPacket{Data: []byte{byte(rng.Intn(8)), 0}}
		}
		sw := parity(t, prog, pisa.BaseArch(), pkts)
		if hits, misses, _ := sw.TableStats("t"); hits == 0 || misses == 0 || hits+misses != 1000 {
			t.Errorf("t: %d hits %d misses of 1000", hits, misses)
		}
	})
}

// TestReplicateAllocations pins what stamping a replica costs: the switch,
// its register bank (three allocations however many registers), its table
// counters and its PHV. The plans are part of the shared compiled program; a
// replica gets none of its own.
func TestReplicateAllocations(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		sw := b.pa.Switch()
		allocgate.AtMost(t, "Replicate on "+b.name, 6, func() { _ = sw.Replicate() })
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
