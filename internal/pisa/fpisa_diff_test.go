package pisa_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
// mantissa register — through the production executor, emitting and
// absorbing, and the reference executor on every FPISA program, requiring
// identical bytes, registers and counters (pisa.DiffRun).
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
				pisa.DiffRun(t, b.prog, b.arch, pkts)
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
	headroom := uint32(core.DefaultProfile.Headroom())
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
// an octet picking the opcode (its low three bits: 0..3 the operations, 4 an
// opcode octet of any value read next, 5..7 folded onto 0..3) and the slot,
// an octet that one time in sixteen truncates the packet so the parser
// refuses it, then one fpisaClassValue per module. seen reports which
// (opcode, class) pairs of module 0 the stream carried untruncated, every
// octet that is no operation counting as opcode 4.
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
		switch {
		case op == 4:
			op = next()
		case op > 4:
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
			seen[[2]int{min(int(op), 4), class0}] = true
		}
		pkts = append(pkts, pisa.DiffPacket{Port: uint16(cut) % 4, Data: pkt})
	}
	return pkts, seen
}

// TestPlanEqualsReferenceOnInputClasses drives every FPISA build with seeded
// fpisaStream sequences — all four opcodes and unknown ones, every input
// class, truncated packets — through the plan executor, emitting and
// absorbing, and the reference (pisa.DiffRun), and checks the sequences did
// carry every opcode × class pair.
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
				pisa.DiffRun(t, b.prog, b.arch, pkts)
			})
		}
	}
}

// FuzzPlanEqualsReference lets the fuzzer write the fpisaStream and runs it
// on every FPISA build, emitting and absorbing (pisa.DiffRun). Its opcode
// octets reach all 256 values, so every pass runs, the miss pass included.
func FuzzPlanEqualsReference(f *testing.F) {
	builds := fpisaBuilds(f)
	f.Add([]byte{0x03, 0xff, 0x02, 0x7f, 0xff, 0xff, 0x08, 0xff, 0x8e, 0, 0, 1})
	f.Add([]byte{0x00, 0x20, 0x04, 0, 0, 0, 0x85, 0x12, 0x34, 0x56, 0x03, 0x40, 0, 0, 0x9a, 0x02, 0x20})
	f.Add([]byte{0x0c, 0x30, 0xc8, 0x06, 0x40, 0, 0, 0x14, 0x20, 0x02, 0x0d, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		for _, b := range builds {
			pkts, _ := fpisaStream(t, b, data)
			pisa.DiffRun(t, b.prog, b.arch, pkts)
		}
	})
}

// TestReplicateAllocations pins what stamping a replica costs: the switch,
// its register bank (three allocations however many registers) and its PHV.
// The plans are part of the shared compiled program; a replica gets none of
// its own.
func TestReplicateAllocations(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		sw := b.pa.Switch()
		allocgate.AtMost(t, "Replicate on "+b.name, 5, func() { _ = sw.Replicate() })
	}
}

// TestProcessScratchAllocatesNothing gates the executor's steady state on
// every FPISA program: parse, both plans and deparse all run on
// switch-owned scratch, emitting (ProcessScratch) and absorbing (Absorb).
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
			if out, err := sw.ProcessScratch(1, pkts[n%len(pkts)]); err != nil || out.Port != 1 {
				t.Fatalf("emitted on port %d, %v", out.Port, err)
			}
			n++
		})
		allocgate.AtMost(t, "Absorb on "+b.name, 0, func() {
			if err := sw.Absorb(1, pkts[n%len(pkts)]); err != nil {
				t.Fatal(err)
			}
			n++
		})
	}
}

// Every FPISA build's absorbing PktAdd pass is shorter than its emitting
// one: renormalisation and reassembly feed only the response, and the whole
// egress only the deparser. Every pass's step counts are pinned, per build
// and per opcode — PktAdd, PktSet, PktRead, PktReadReset, then one no entry
// names — as emitting ingress+egress / absorbing ingress+egress: grouping a
// stage's steps by kind or reusing a lookup's row moves no step in or out
// of a plan.
func TestAbsorbingAddPassIsShorter(t *testing.T) {
	golden := map[string]string{
		"FPISA-A/tofino-like-base/m1":     "58+37/50+0 58+37/50+0 16+37/4+0 16+37/4+0 12+37/0+0",
		"FPISA-A/tofino-like-extended/m1": "27+8/19+0 27+8/19+0 16+8/4+0 16+8/4+0 12+8/0+0",
		"FPISA-A/tofino-like-extended/m2": "51+16/36+0 51+16/36+0 30+16/7+0 30+16/7+0 23+16/0+0",
		"FPISA-A/tofino-like-extended/m3": "75+24/53+0 75+24/53+0 44+24/10+0 44+24/10+0 34+24/0+0",
		"FPISA/tofino-like-extended/m1":   "25+8/17+0 24+8/16+0 16+8/4+0 16+8/4+0 12+8/0+0",
		"FPISA/tofino-like-extended/m2":   "47+16/32+0 45+16/30+0 30+16/7+0 30+16/7+0 23+16/0+0",
		"FPISA/tofino-like-extended/m3":   "69+24/47+0 66+24/44+0 44+24/10+0 44+24/10+0 34+24/0+0",
	}
	builds := fpisaBuilds(t)
	if len(builds) != len(golden) {
		t.Errorf("%d FPISA builds, %d pinned", len(builds), len(golden))
	}
	for _, b := range builds {
		sw := b.pa.Switch()
		var counts []string
		for _, op := range []uint8{core.PktAdd, core.PktSet, core.PktRead, core.PktReadReset, 4} {
			emitIn, emitEg := sw.PassSteps(op, false)
			absIn, absEg := sw.PassSteps(op, true)
			counts = append(counts, fmt.Sprintf("%d+%d/%d+%d", emitIn, emitEg, absIn, absEg))
			if op == core.PktAdd && (absIn >= emitIn || absEg != 0) {
				t.Errorf("%s: absorbing PktAdd runs %d + %d steps, emitting %d + %d", b.name, absIn, absEg, emitIn, emitEg)
			}
		}
		if got := strings.Join(counts, " "); got != golden[b.name] {
			t.Errorf("%s steps per opcode, emitting/absorbing:\n got %s\nwant %s", b.name, got, golden[b.name])
		}
	}
}

// Each module's two renormalisation LPMs scan one TCAM between them: in
// every emitting pass of every FPISA build, each module's renorm_m reuses
// the row its renorm_e matched (same key u_mag, same 31 prefixes, nothing
// writes u_mag in between), and no other lookup reuses one. Absorbing
// passes run no egress, so they reuse none.
func TestRenormalisationScansOnce(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		sw := b.pa.Switch()
		for _, op := range []uint8{core.PktAdd, core.PktSet, core.PktRead, core.PktReadReset, 4} {
			if got := sw.ReusedLookups(op, false); got != b.modules {
				t.Errorf("%s op %d: %d emitting lookups reuse a row, want %d", b.name, op, got, b.modules)
			}
			if got := sw.ReusedLookups(op, true); got != 0 {
				t.Errorf("%s op %d: %d absorbing lookups reuse a row, want 0", b.name, op, got)
			}
		}
	}
}

// TestParserMatchesReferenceAtEveryLength parses random bytes of every
// length from 0 to two past the packet size on every FPISA build: the
// parser — one length check from ParseLen on, one per extract below it —
// must return refParse's error text and fill every field as refParse does.
// ParseLen is the packet size, so every well-formed packet is checked once.
func TestParserMatchesReferenceAtEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range fpisaBuilds(t) {
		sw := b.pa.Switch().Replicate()
		size := core.PacketBytes(b.modules)
		if sw.ParseLen() != size {
			t.Errorf("%s: parse checks each extract below %d bytes, want the %d-byte packet size", b.name, sw.ParseLen(), size)
		}
		for n := 0; n <= size+2; n++ {
			for range 16 {
				pkt := make([]byte, n)
				rng.Read(pkt)
				got, want, gotErr, wantErr := sw.ParseFields(pkt)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
					t.Fatalf("%s, % x: parsed %v, %v; want %v, %v", b.name, pkt, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// TestFPISAUtilizationGolden pins every physical stage's resource usage —
// {SRAM TCAM stateful-ALU VLIW crossbar result-bus hash-bit} — for every
// FPISA build, the numbers behind Table 3. A change to table or register
// placement, or to resource accounting, must leave them as they are.
func TestFPISAUtilizationGolden(t *testing.T) {
	golden := map[string]string{
		"FPISA-A/tofino-like-base/m1":     "[{0 0 0 5 0 3 0} {0 1 0 3 4 2 0} {4 0 2 2 2 2 16} {0 0 0 2 0 1 0} {0 0 0 3 0 1 0} {0 1 0 9 4 2 0} {0 1 0 25 4 1 0} {2 1 1 31 5 2 8} {2 0 1 4 1 3 8} {0 0 0 4 0 2 0} {0 0 0 0 0 0 0} {0 0 0 0 0 0 0}]",
		"FPISA-A/tofino-like-extended/m1": "[{0 0 0 5 0 3 0} {0 1 0 3 4 2 0} {4 0 2 2 2 2 16} {0 0 0 2 0 1 0} {0 0 0 3 0 1 0} {0 0 0 3 0 2 0} {0 0 0 1 0 1 0} {0 0 0 1 0 1 0} {2 1 1 2 5 2 8} {2 0 1 4 1 3 8} {0 0 0 4 0 2 0} {0 0 0 0 0 0 0}]",
		"FPISA-A/tofino-like-extended/m2": "[{0 0 0 8 0 4 0} {0 2 0 6 8 4 0} {6 0 3 4 3 3 24} {0 0 0 4 0 2 0} {0 0 0 6 0 2 0} {0 0 0 6 0 4 0} {0 0 0 2 0 2 0} {0 0 0 2 0 2 0} {4 2 2 4 10 4 16} {4 0 2 8 2 4 16} {0 0 0 8 0 3 0} {0 0 0 0 0 0 0}]",
		"FPISA-A/tofino-like-extended/m3": "[{0 0 0 11 0 5 0} {0 3 0 9 12 6 0} {8 0 4 6 4 4 32} {0 0 0 6 0 3 0} {0 0 0 9 0 3 0} {0 0 0 9 0 6 0} {0 0 0 3 0 3 0} {0 0 0 3 0 3 0} {6 3 3 6 15 6 24} {6 0 3 12 3 5 24} {0 0 0 12 0 4 0} {0 0 0 0 0 0 0}]",
		"FPISA/tofino-like-extended/m1":   "[{0 0 0 5 0 3 0} {0 1 0 3 4 2 0} {4 0 2 2 2 2 16} {0 0 0 2 0 1 0} {0 0 0 3 0 1 0} {0 0 0 3 0 2 0} {0 0 0 1 0 1 0} {2 1 1 2 5 2 8} {2 0 1 4 1 3 8} {0 0 0 4 0 2 0} {0 0 0 0 0 0 0} {0 0 0 0 0 0 0}]",
		"FPISA/tofino-like-extended/m2":   "[{0 0 0 8 0 4 0} {0 2 0 6 8 4 0} {6 0 3 4 3 3 24} {0 0 0 4 0 2 0} {0 0 0 6 0 2 0} {0 0 0 6 0 4 0} {0 0 0 2 0 2 0} {4 2 2 4 10 4 16} {4 0 2 8 2 4 16} {0 0 0 8 0 3 0} {0 0 0 0 0 0 0} {0 0 0 0 0 0 0}]",
		"FPISA/tofino-like-extended/m3":   "[{0 0 0 11 0 5 0} {0 3 0 9 12 6 0} {8 0 4 6 4 4 32} {0 0 0 6 0 3 0} {0 0 0 9 0 3 0} {0 0 0 9 0 6 0} {0 0 0 3 0 3 0} {6 3 3 6 15 6 24} {6 0 3 12 3 5 24} {0 0 0 12 0 4 0} {0 0 0 0 0 0 0} {0 0 0 0 0 0 0}]",
	}
	builds := fpisaBuilds(t)
	if len(builds) != len(golden) {
		t.Errorf("%d FPISA builds, %d pinned", len(builds), len(golden))
	}
	for _, b := range builds {
		if got := fmt.Sprint(b.pa.Utilization().Stages); got != golden[b.name] {
			t.Errorf("%s stages:\n got %s\nwant %s", b.name, got, golden[b.name])
		}
	}
}

// TestFPISAPlanDigest pins what every FPISA build runs: the SHA-256 of its
// plan dump (PlanDump) — every emitting and absorbing pass's steps, lookup
// tables and stateful ops, the constants, the PHV slot bases and the
// dispatch index. A change to the ISA, the stage check or the lowering must
// leave every packet's steps exactly as they are; a changed immediate in
// the program builder changes the digest.
func TestFPISAPlanDigest(t *testing.T) {
	golden := map[string]string{
		"FPISA-A/tofino-like-base/m1":     "dd2175aa06fc7eeac6149438e5138daee644cb27f0a90331f8bdec8cd247b495",
		"FPISA-A/tofino-like-extended/m1": "3130bfcc63881f2d0b835bbca5096e96d1f604c34be5f5b3d05bdc40faab4139",
		"FPISA-A/tofino-like-extended/m2": "05958fa84288804280471291aed0904e58bfcc8d97fb8f9e261fb176255bb23e",
		"FPISA-A/tofino-like-extended/m3": "20308b1ab2a39c93d5a58e7aeee8aaba878ad6de73a3153a5d568d981fa8bbd6",
		"FPISA/tofino-like-extended/m1":   "4ea0341b3843d4ae9ded844f70adac49a947c8426e49e55edbe31b0eeb53385d",
		"FPISA/tofino-like-extended/m2":   "767e216bdd0e64f2705610a20fbc04d77dd21e814216447c5c1473969f3d7b15",
		"FPISA/tofino-like-extended/m3":   "678600234d78e3f89cd5178c2f5b9c71833e17d16c2b274417e399c973d86416",
	}
	builds := fpisaBuilds(t)
	if len(builds) != len(golden) {
		t.Errorf("%d FPISA builds, %d pinned", len(builds), len(golden))
	}
	for _, b := range builds {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.pa.Switch().PlanDump()))); got != golden[b.name] {
			t.Errorf("%s plan digest %s, want %s", b.name, got, golden[b.name])
		}
	}
}

// BenchmarkCompileFPISA times compiling the FPISA program (pisa.New: every
// plan of both variants included) on the smallest build, one FPISA-A module
// on the base architecture, and on the largest, three on the extended one.
func BenchmarkCompileFPISA(b *testing.B) {
	for _, bc := range []struct {
		name    string
		arch    pisa.Arch
		modules int
	}{
		{"base-m1", pisa.BaseArch(), 1},
		{"ext-m3", pisa.ExtendedArch(), 3},
	} {
		prog, _, err := core.BuildProgram(core.DefaultFP32(core.ModeApprox), bc.modules, fpisaSlots, bc.arch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := pisa.New(prog, bc.arch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChunkPasses times one chunk's pipeline passes as a two-worker
// job runs them, on every FPISA build: the first ADD binds the slot and is
// absorbed (a PktSet through Absorb), the second completes the chunk and is
// emitted (a PktAdd through ProcessScratch). Chunks cycle over 4 slots; one
// op is one chunk, so ns/op is ns per chunk.
func BenchmarkChunkPasses(b *testing.B) {
	const slots = 4
	for _, bc := range fpisaBuilds(b) {
		var set, add [slots][]byte
		vals := make([]float32, bc.modules)
		for s := range slots {
			for k := range vals {
				vals[k] = float32(s+1) * float32(math.Ldexp(1.25, k-s))
			}
			var err error
			if set[s], err = bc.pa.Packet(core.PktSet, uint32(s), vals); err != nil {
				b.Fatal(err)
			}
			if add[s], err = bc.pa.Packet(core.PktAdd, uint32(s), vals); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			sw, n := bc.pa.Switch().Replicate(), 0
			for b.Loop() {
				s := n % slots
				if err := sw.Absorb(1, set[s]); err != nil {
					b.Fatal(err)
				}
				if _, err := sw.ProcessScratch(1, add[s]); err != nil {
					b.Fatal(err)
				}
				n++
			}
		})
	}
}
