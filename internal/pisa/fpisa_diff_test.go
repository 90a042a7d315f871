package pisa_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
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
					cfg:  core.DefaultFP32(mode), modules: modules, pa: pa, prog: prog,
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
	cfg     core.Config
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
// mantissa register — through every FPISA program and holds each response
// to the FPISA packet contract and the Accumulator (runFPISAStream).
func TestDifferentialFPISAPrograms(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", b.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var pkts []fpisaPacket
				emit := func(op byte, slot uint32, vals []float32) {
					pkt, err := b.pa.Packet(op, slot, vals)
					if err != nil {
						t.Fatal(err)
					}
					pkts = append(pkts, fpisaPacket{port: 1, data: pkt})
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
				runFPISAStream(t, b, pkts)
			})
		}
	}
}

// fpisaPacket is one packet of an FPISA stream and the port it arrives on.
type fpisaPacket struct {
	port uint16
	data []byte
}

// inDomain reports whether an FP32 read-out lies where the compiled
// program assembles it correctly: zero or normal. BuildProgram mis-assembles
// a subnormal read-out and wraps one that overflows the exponent instead of
// saturating it to ±Inf, and it carries no NaN.
func inDomain(bits uint32) bool {
	exp := bits >> 23 & 0xff
	return exp != 0xff && (exp != 0 || bits<<1 == 0)
}

// runFPISAStream drives pkts through a fresh replica of b's switch and holds
// every packet to the FPISA packet contract, with an Accumulator of b's
// Config as the arithmetic reference (one element per slot and module):
//
//   - a packet shorter than the FPISA packet is refused by the parser and
//     changes no register;
//   - every other packet leaves on the port it arrived on with its op and
//     slot octets as they came;
//   - an octet that names no operation changes no register, and an
//     operation changes none outside its slot;
//   - set, add, read and read-reset answer each module with the value and
//     the overflow flag the Accumulator holds after the same operation on
//     the packet's own value bits, wherever that read-out is in the
//     program's domain (inDomain). A slot with a module outside it is
//     read-reset on both sides before the next packet. A read's response
//     is the read-out only when its value region is zero, as
//     core.PipelineAggregator sends it: the program takes the region for an
//     incoming value whatever the op;
//   - nothing is a runtime error, and every packet is counted as emitted
//     or refused by the parser.
func runFPISAStream(t testing.TB, b fpisaBuild, pkts []fpisaPacket) {
	t.Helper()
	sw := b.pa.Switch().Replicate()
	acc := core.MustNewAccumulator(b.cfg, fpisaSlots*b.modules)
	size, m := core.PacketBytes(b.modules), b.modules
	valuesAt := core.PacketBytes(0)
	regs := func() (snap [][]uint32) {
		for _, r := range b.prog.Registers {
			v, err := sw.RegisterSnapshot(r.Name)
			if err != nil {
				t.Fatal(err)
			}
			snap = append(snap, v)
		}
		return snap
	}
	reset := make([]byte, size)
	reset[0] = core.PktReadReset
	for i, p := range pkts {
		before := regs()
		out, err := sw.ProcessScratch(p.port, p.data)
		after := regs()
		if len(p.data) < size {
			if err == nil || !strings.HasPrefix(err.Error(), "pisa: parser:") {
				t.Fatalf("packet %d: %d bytes of %d: error %v, want the parser's", i, len(p.data), size, err)
			}
			if !slices.EqualFunc(before, after, slices.Equal) {
				t.Fatalf("packet %d: a refused packet changed a register", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("packet %d (% x): %v", i, p.data, err)
		}
		if out.Port != p.port || !bytes.Equal(out.Packet[:5], p.data[:5]) {
			t.Fatalf("packet %d: out on port %d as % x, sent on %d as % x", i, out.Port, out.Packet[:5], p.port, p.data[:5])
		}
		op, slot := p.data[0], int(binary.BigEndian.Uint32(p.data[1:]))
		for r := range after {
			for e := range after[r] {
				if after[r][e] != before[r][e] && (op > core.PktSet || e != slot) {
					t.Fatalf("packet %d (op %d slot %d): register %q element %d changed", i, op, slot, b.prog.Registers[r].Name, e)
				}
			}
		}
		if op > core.PktSet {
			continue
		}
		for k := range m {
			el := slot*m + k
			switch op {
			case core.PktSet:
				acc.Reset(el)
				fallthrough
			case core.PktAdd:
				if err := acc.AddBits(el, binary.BigEndian.Uint32(p.data[valuesAt+4*k:])); err != nil {
					t.Fatal(err)
				}
			}
		}
		values := p.data[valuesAt : valuesAt+4*m]
		compare := op == core.PktAdd || op == core.PktSet || !slices.ContainsFunc(values, func(v byte) bool { return v != 0 })
		domain := true
		for k := range m {
			el := slot*m + k
			want := acc.ReadBits(el)
			if !inDomain(want) {
				domain = false
				continue
			}
			if !compare {
				continue
			}
			got := binary.BigEndian.Uint32(out.Packet[valuesAt+4*k:])
			gotOvf := out.Packet[valuesAt+4*m+k] != 0
			if got != want || gotOvf != acc.Overflowed(el) {
				t.Fatalf("packet %d (op %d slot %d, % x): module %d reads %#x overflow %v, accumulator %#x overflow %v",
					i, op, slot, p.data, k, got, gotOvf, want, acc.Overflowed(el))
			}
		}
		if op == core.PktReadReset || !domain {
			for k := range m {
				acc.Reset(slot*m + k)
			}
		}
		if !domain {
			binary.BigEndian.PutUint32(reset[1:], uint32(slot))
			if _, err := sw.ProcessScratch(p.port, reset); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c := sw.Counters(); c.RuntimeErrors != 0 || c.Received != c.Emitted+c.ParserErrors {
		t.Errorf("counters %+v: want every packet emitted or refused by the parser", c)
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
func fpisaStream(t testing.TB, b fpisaBuild, data []byte) (pkts []fpisaPacket, seen map[[2]int]bool) {
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
		pkts = append(pkts, fpisaPacket{port: uint16(cut) % 4, data: pkt})
	}
	return pkts, seen
}

// TestPlanEqualsReferenceOnInputClasses holds every compiled FPISA program to
// its reference, the Accumulator, and to the FPISA packet contract
// (runFPISAStream) on seeded fpisaStream sequences — all four opcodes and
// unknown ones, every input class, truncated packets — and checks the
// sequences did carry every opcode × class pair.
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
				runFPISAStream(t, b, pkts)
			})
		}
	}
}

// FuzzPlanEqualsReference lets the fuzzer write the fpisaStream and runs it
// on every FPISA build (runFPISAStream). Its opcode octets reach all 256
// values, so every octet that names no operation is sent too.
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
			runFPISAStream(t, b, pkts)
		}
	})
}

// TestReplicateAllocations pins what stamping a replica costs: the switch,
// its register bank (three allocations however many registers) and its PHV.
// The tables and actions are part of the shared compiled program; a replica
// gets none of its own.
func TestReplicateAllocations(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		sw := b.pa.Switch()
		allocgate.AtMost(t, "Replicate on "+b.name, 5, func() { _ = sw.Replicate() })
	}
}

// TestProcessScratchAllocatesNothing gates the executor's steady state on
// every FPISA program: parse, both gresses and deparse all run on
// switch-owned scratch.
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
	}
}

// TestParserMatchesReferenceAtEveryLength holds every FPISA build's parser
// to its packet size: a packet of core.PacketBytes bytes parses, its op
// octet as sent, and every shorter one is refused with an error naming a
// field.
func TestParserMatchesReferenceAtEveryLength(t *testing.T) {
	for _, b := range fpisaBuilds(t) {
		sw := b.pa.Switch().Replicate()
		pkt, err := b.pa.Packet(core.PktSet, 5, make([]float32, b.modules))
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt) != core.PacketBytes(b.modules) {
			t.Fatalf("%s: a %d-byte packet, want %d", b.name, len(pkt), core.PacketBytes(b.modules))
		}
		if op, err := sw.ParseField(pkt, "op"); err != nil || op != core.PktSet {
			t.Errorf("%s: %d-byte packet parses op %d, %v", b.name, len(pkt), op, err)
		}
		for l := range len(pkt) {
			_, err := sw.ParseField(pkt[:l], "op")
			if err == nil || !slices.ContainsFunc(b.prog.Fields, func(f pisa.FieldDecl) bool {
				return strings.Contains(err.Error(), fmt.Sprintf("%q", f.Name))
			}) {
				t.Errorf("%s: %d of %d bytes: error %v, want one naming a field", b.name, l, len(pkt), err)
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

// TestFPISAProgramDigest pins what every FPISA build compiles: the SHA-256
// of the JSON of core.BuildProgram's pisa.Program — every field, register,
// extract, table, action, instruction, stateful op and entry, each entry's
// value, mask, prefix length, priority and action data included. A change
// to the program builder changes the digest.
func TestFPISAProgramDigest(t *testing.T) {
	golden := map[string]string{
		"FPISA-A/tofino-like-base/m1":     "d29b313bf464ec9478bdc3205b348ab6b12f771752219074aa6d1636bf2864f8",
		"FPISA-A/tofino-like-extended/m1": "2845aadb15e3ce2e2a8504b984146d2c0b0ad0bf5e49473e84dc590f60af5f2d",
		"FPISA-A/tofino-like-extended/m2": "24b6ea53322850b376932ef29b237efc7a27ec813f6ee6ac99be8f25441c8865",
		"FPISA-A/tofino-like-extended/m3": "e43df9d975979efd44262af8267fa8503139c2416d852987c345bcd8867bbd73",
		"FPISA/tofino-like-extended/m1":   "a14ad591dde0e9b7f3d0305a84a81bb065be5b11e3d3fa529c1b586e04ac59b5",
		"FPISA/tofino-like-extended/m2":   "814cb91fa87eb9330d26960265560042ced166ba603364416a657c585208e7da",
		"FPISA/tofino-like-extended/m3":   "716007a3b49a06e6dca40f701d1d5558b4f7fe33a2670b13ed611eb9daa7768f",
	}
	builds := fpisaBuilds(t)
	if len(builds) != len(golden) {
		t.Errorf("%d FPISA builds, %d pinned", len(builds), len(golden))
	}
	for _, b := range builds {
		js, err := json.Marshal(b.prog)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != golden[b.name] {
			t.Errorf("%s program digest %s, want %s", b.name, got, golden[b.name])
		}
	}
}

// BenchmarkCompileFPISA times compiling the FPISA program (pisa.New: field,
// table and action resolution, the stage check and the resource report) on
// the smallest build, one FPISA-A module on the base architecture, and on
// the largest, three on the extended one.
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
