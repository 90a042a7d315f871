package pisa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sameStageProg runs two tables in stage 0 — one stateless, one with a
// stateful op whose register index comes from the packet — and a third in
// stage 1 that consumes both write sets. An index ≥ 4 fails the stage after
// the first table already queued its writes. The two stage-0 tables read the
// same fields and write disjoint ones that neither reads.
func sameStageProg() Program {
	return Program{
		Fields: []FieldDecl{
			{Name: "a", Width: 32}, {Name: "b", Width: 32}, {Name: "idx", Width: 8},
			{Name: "x", Width: 32}, {Name: "y", Width: 16}, {Name: "old", Width: 32}, {Name: "ovf", Width: 8},
			{Name: "c", Width: 8},
		},
		Registers: []RegisterDecl{{Name: "r", Width: 32, Size: 4}},
		Parser: []ExtractDecl{
			{Field: "a", Offset: 0, Bytes: 4}, {Field: "b", Offset: 4, Bytes: 4},
			{Field: "idx", Offset: 8, Bytes: 1}, {Field: "x", Offset: 9, Bytes: 4},
			{Field: "y", Offset: 13, Bytes: 2}, {Field: "old", Offset: 15, Bytes: 4},
			{Field: "ovf", Offset: 19, Bytes: 1}, {Field: "c", Offset: 20, Bytes: 1},
		},
		Tables: []TableDecl{
			{
				// Index 3 misses, so a packet following a failed one must not
				// inherit the writes this table queued for it.
				Name: "sum", Stage: 0, Kind: MatchExact, Key: []string{"idx"},
				Actions: []ActionDecl{{Name: "sum", Instrs: []Instr{
					{Op: OpAdd, Dst: "x", A: F("a"), B: F("b")},
					{Op: OpSub, Dst: "y", A: F("a"), B: F("b")},
					{Op: OpMov, Dst: FieldEgressPort, A: Imm(2)},
				}}},
				Entries: []EntryDecl{{Value: 0, Action: "sum"}, {Value: 1, Action: "sum"}, {Value: 2, Action: "sum"}, {Value: 4, Action: "sum"}},
			},
			{
				Name: "acc", Stage: 0, Kind: MatchAlways,
				Actions: []ActionDecl{{
					Name:   "acc",
					Instrs: []Instr{{Op: OpAdd, Dst: "c", A: F("b"), B: Imm(1)}},
					Stateful: &StatefulOp{
						Register: "r", IndexField: "idx", InField: "a",
						True: UAddIn, Signed: true,
						Output: OutOld, OutputField: "old", OverflowField: "ovf",
					},
				}},
				Default: "acc",
			},
			{
				Name: "mix", Stage: 1, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "mix", Instrs: []Instr{
					{Op: OpSub, Dst: "a", A: F("x"), B: F("old")},
					{Op: OpOr, Dst: "b", A: F("y"), B: F("c")},
				}}},
				Default: "mix",
			},
		},
	}
}

// toyModel is a hand-written Go transcription of a toy program: it runs one
// packet against the model's registers and returns the port and bytes the
// switch must emit, or which error it must return ("parser" or "runtime").
type toyModel func(regs []uint32, pkt []byte) (port uint16, out []byte, fail string)

// forwardModel is forwardProg(addend): val += addend, out on port 5.
func forwardModel(addend uint32) toyModel {
	return func(_ []uint32, pkt []byte) (uint16, []byte, string) {
		if len(pkt) < 4 {
			return 0, nil, "parser"
		}
		out := slices.Clone(pkt)
		binary.BigEndian.PutUint32(out, binary.BigEndian.Uint32(pkt)+addend)
		return 5, out, ""
	}
}

// sameStageModel is sameStageProg: stage 0's two tables both read the
// parsed fields, and stage 1 reads what both wrote.
func sameStageModel(r []uint32, pkt []byte) (uint16, []byte, string) {
	if len(pkt) < 21 {
		return 0, nil, "parser"
	}
	be := binary.BigEndian
	a, b, idx := be.Uint32(pkt), be.Uint32(pkt[4:]), pkt[8]
	x, y := be.Uint32(pkt[9:]), be.Uint16(pkt[13:])
	if int(idx) >= len(r) { // acc's register index: the packet dies in stage 0
		return 0, nil, "runtime"
	}
	var port uint16
	if idx != 3 { // sum's entries
		x, y, port = a+b, uint16(a-b), 2
	}
	c := byte(b + 1)
	old := r[idx]
	r[idx] = old + a
	ovf := int64(int32(old))+int64(int32(a)) != int64(int32(r[idx]))
	out := slices.Clone(pkt)
	be.PutUint32(out, x-old)
	be.PutUint32(out[4:], uint32(y)|uint32(c))
	be.PutUint32(out[9:], x)
	be.PutUint16(out[13:], y)
	be.PutUint32(out[15:], old)
	out[19], out[20] = byte(boolBit(ovf)), c
	return port, out, ""
}

// TestDifferentialToyPrograms holds the executor to a hand-written model of
// each of the package's toy programs (toyModel): unicast, same-stage
// multi-table writes read by the next stage, signed register overflow, and
// parser and mid-stage runtime errors. Every packet's error kind, port and
// bytes, the counters after every packet and the registers every 64
// packets and at the end must match. Inputs are seeded; a failure names the
// packet index.
func TestDifferentialToyPrograms(t *testing.T) {
	cases := []struct {
		name   string
		prog   Program
		model  toyModel
		pktLen int
	}{
		{"forward", forwardProg(1), forwardModel(1), 4},
		{"same-stage", sameStageProg(), sameStageModel, 21},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2} {
			rng := rand.New(rand.NewSource(seed))
			pkts := make([]toyPacket, 300)
			for i := range pkts {
				data := make([]byte, tc.pktLen)
				rng.Read(data)
				if tc.name == "same-stage" {
					data[8] = byte(rng.Intn(5)) // index 4 is out of range
					if rng.Intn(4) == 0 {
						copy(data, []byte{0x7f, 0xff, 0xff, 0xff}) // provoke signed overflow
					}
				}
				if rng.Intn(16) == 0 {
					data = data[:rng.Intn(len(data))] // parser error
				}
				pkts[i] = toyPacket{port: uint16(rng.Intn(4)), data: data}
			}
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				sw := mustSwitch(t, tc.prog, BaseArch())
				var regs []uint32
				if len(tc.prog.Registers) > 0 {
					regs = make([]uint32, tc.prog.Registers[0].Size)
				}
				var want Counters
				for i, p := range pkts {
					got, err := sw.ProcessScratch(p.port, p.data)
					port, out, fail := tc.model(regs, p.data)
					want.Received++
					switch fail {
					case "":
						want.Emitted++
					case "parser":
						want.ParserErrors++
					default:
						want.RuntimeErrors++
					}
					if errKind(err) != fail {
						t.Fatalf("packet %d (% x): error %v, want a %q error", i, p.data, err, fail)
					}
					if err == nil && (got.Port != port || !bytes.Equal(got.Packet, out)) {
						t.Fatalf("packet %d (% x): port %d % x, want port %d % x", i, p.data, got.Port, got.Packet, port, out)
					}
					if sw.Counters() != want {
						t.Fatalf("packet %d: counters %+v, want %+v", i, sw.Counters(), want)
					}
					if regs != nil && (i%64 == 63 || i == len(pkts)-1) {
						if got, _ := sw.RegisterSnapshot("r"); !slices.Equal(got, regs) {
							t.Fatalf("packet %d: register r %v, want %v", i, got, regs)
						}
					}
				}
			})
		}
	}
}

// toyPacket is one input packet and the port it arrives on.
type toyPacket struct {
	port uint16
	data []byte
}

// errKind names what kind of error ProcessScratch returned: "" for none,
// "parser" for a packet the parser refused, "runtime" for any other.
func errKind(err error) string {
	switch {
	case err == nil:
		return ""
	case strings.HasPrefix(err.Error(), "pisa: parser:"):
		return "parser"
	}
	return "runtime"
}

// randomProg draws a program that leans on everything the compiler checks
// and the executor runs: several tables per stage, every match kind (exact keys both narrow
// enough for the direct index and wide enough for the sorted search),
// default and no-default misses, action data, every opcode (csel with its
// selector), stateful ops of every condition, update and output kind, and
// writes to the egress port. Every user field is parser-extracted, so any
// table may read any field in any stage the compiler lets it: a table may
// not read what another table of its stage writes, but it may read what it
// writes itself — a stateful op may read its own output field or a field
// another action of its table writes, though never one an instruction of its
// own action writes, which the compiler refuses. Within a stage the tables
// write disjoint fields, as the compiler demands.
func randomProg(rng *rand.Rand) Program {
	var p Program
	var fields []string // user fields, all readable everywhere
	off := 0
	for _, w := range []int{32, 32, 32, 32, 16, 16, 8, 8, 8, 8} {
		name := fmt.Sprintf("f%d_%d", len(fields), w)
		p.Fields = append(p.Fields, FieldDecl{Name: name, Width: w})
		p.Parser = append(p.Parser, ExtractDecl{Field: name, Offset: off, Bytes: w / 8})
		fields = append(fields, name)
		off += w / 8
	}
	// The 8-bit fields, the last two of which nobody writes: keys that hit,
	// register indices in range.
	narrow, fixed := fields[6:], fields[8:]
	pick := func(from []string) string { return from[rng.Intn(len(from))] }

	// Registers per physical stage, which ingress and egress share: at most
	// the arch's four stateful ALUs.
	var regs [3]int
	for _, egress := range []bool{false, true} {
		for stage := 0; stage < 3; stage++ {
			// Deal the stage's writable fields out to its tables, keeping a
			// share nobody writes so every table has fields to read.
			writable := append([]string(nil), fields[:8]...)
			if !egress {
				writable = append(writable, FieldEgressPort)
			}
			rng.Shuffle(len(writable), func(i, j int) { writable[i], writable[j] = writable[j], writable[i] })
			tables := 1 + rng.Intn(3)
			for ti := 0; ti < tables; ti++ {
				taken := (ti + 1) * len(writable) / (tables + 1) // dealt to this table and those before it
				own := writable[ti*len(writable)/(tables+1) : taken]
				name := fmt.Sprintf("t_%v_%d_%d", egress, stage, ti)
				td := TableDecl{Name: name, Stage: stage, Egress: egress, Kind: MatchKind(rng.Intn(4))}
				// The table's register, declared with the table once one of
				// its actions has drawn a stateful op on it (add).
				reg := ""
				var regDecl RegisterDecl
				if rng.Intn(2) == 0 && regs[stage] < 4 {
					reg = "r_" + name
					regDecl = RegisterDecl{Name: reg, Width: []int{8, 16, 32}[rng.Intn(3)], Size: 4}
				}
				add := func(td TableDecl) {
					if slices.ContainsFunc(td.Actions, func(a ActionDecl) bool { return a.Stateful != nil }) {
						p.Registers = append(p.Registers, regDecl)
						regs[stage]++
					}
					p.Tables = append(p.Tables, td)
				}
				// Operands come from fields no table of the stage is dealt
				// (or are the instruction's own destination), so no
				// instruction reads what another of its action, or another
				// table of its stage, writes.
				var others []string
				for _, f := range fields {
					if !slices.Contains(writable[:tables*len(writable)/(tables+1)], f) {
						others = append(others, f)
					}
				}
				action := func(name string, params bool) ActionDecl {
					ad := ActionDecl{Name: name}
					dsts := append([]string(nil), own...)
					rng.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
					// What the stateful op may read besides: its own table's
					// fields that no instruction of this action writes.
					mine := func(from, domain []string) []string {
						for _, f := range own {
							if slices.Contains(domain, f) && !slices.ContainsFunc(ad.Instrs, func(in Instr) bool { return in.Dst == f }) {
								from = append(from[:len(from):len(from)], f)
							}
						}
						return from
					}
					operand := func(dst string) Operand {
						switch r := rng.Intn(8); {
						case r < 4:
							return F(pick(others))
						case r < 5 && dst[0] == 'f':
							return F(dst)
						case r < 6 && params:
							return P(rng.Intn(2))
						default:
							return Imm(rng.Uint32() >> uint(rng.Intn(32)))
						}
					}
					for n := rng.Intn(4); n > 0 && len(dsts) > 0; n-- {
						in := Instr{Op: Opcode(rng.Intn(int(OpCsel) + 1)), Dst: dsts[0]}
						dsts = dsts[1:]
						in.A, in.B = operand(in.Dst), operand(in.Dst)
						if in.Op == OpCsel {
							in.Pred = pick(others)
						}
						ad.Instrs = append(ad.Instrs, in)
					}
					if reg != "" && rng.Intn(4) != 0 {
						so := &StatefulOp{
							Register: reg, IndexField: pick(mine(fixed, narrow)), InField: pick(mine(others, fields)),
							ShiftField: pick(mine(fixed, narrow)),
							Cond: SaluCond{
								Kind: SaluCondKind(rng.Intn(int(CondPhv) + 1)), Cmp: CmpOp(rng.Intn(int(CmpGt) + 1)),
								Field: pick(mine(others, fields)), Off: int64(rng.Intn(9) - 4),
							},
							True:   SaluUpdate(rng.Intn(int(URsawAddIn) + 1)),
							False:  SaluUpdate(rng.Intn(int(URsawAddIn) + 1)),
							Signed: rng.Intn(2) == 0,
						}
						if len(dsts) > 0 && rng.Intn(4) != 0 {
							so.Output, so.OutputField = SaluOutput(1+rng.Intn(int(OutNew))), dsts[0]
							dsts = dsts[1:]
						}
						if len(dsts) > 0 && rng.Intn(2) == 0 {
							so.OverflowField = dsts[0]
						}
						ad.Stateful = so
					}
					return ad
				}

				if td.Kind == MatchAlways {
					td.Actions, td.Default = []ActionDecl{action("run", false)}, "run"
					add(td)
					continue
				}
				td.Key = []string{pick(fixed)}
				if td.Kind == MatchExact && rng.Intn(2) == 0 {
					td.Key = append(td.Key, pick(fixed)) // 16-bit key: sorted search
				}
				acts := 1 + rng.Intn(3)
				for ai := 0; ai < acts; ai++ {
					td.Actions = append(td.Actions, action(fmt.Sprintf("a%d", ai), true))
				}
				if rng.Intn(2) == 0 {
					td.Actions = append(td.Actions, action("miss", false))
					td.Default = "miss"
				}
				seen := map[uint64]bool{}
				for n := 1 + rng.Intn(6); n > 0; n-- {
					// Small key values: the packets below carry them often.
					e := EntryDecl{
						Value: uint64(rng.Intn(4)), Action: fmt.Sprintf("a%d", rng.Intn(acts)),
						Params: []uint32{rng.Uint32(), uint32(rng.Intn(40))},
					}
					switch td.Kind {
					case MatchExact:
						if len(td.Key) == 2 {
							e.Value |= uint64(rng.Intn(4)) << 8
						}
						if seen[e.Value] {
							continue
						}
						seen[e.Value] = true
					case MatchTernary:
						e.Mask, e.Priority = uint64(rng.Intn(8)), rng.Intn(3)
					case MatchLPM:
						e.PrefixLen = rng.Intn(9)
						e.Value <<= uint(rng.Intn(7))
					}
					td.Entries = append(td.Entries, e)
				}
				add(td)
			}
		}
	}
	return p
}

// TestDifferentialRandomPrograms compiles and runs generated programs
// (randomProg): 60 seeds, each a fresh program and 400 packets, on the
// extended architecture so every shift form and the RSAW update compile;
// every generated program must compile. Packets mix uniformly random bytes
// with small values that hit the tables' entries and stay inside the
// registers, plus the occasional truncated packet. No packet may panic the
// executor, each must tick exactly the counter its outcome names — Emitted
// for an emission as long as the packet, ParserErrors for a parser error,
// RuntimeErrors for any other — and Received must equal their sum.
func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProg(rng)
		pkts := make([]toyPacket, 400)
		for i := range pkts {
			data := make([]byte, 28)
			rng.Read(data)
			for k := range data {
				if rng.Intn(3) != 0 {
					data[k] &= 3
				}
			}
			if rng.Intn(32) == 0 {
				data = data[:rng.Intn(len(data))]
			}
			pkts[i] = toyPacket{port: uint16(rng.Intn(4)), data: data}
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sw := mustSwitch(t, prog, ExtendedArch())
			for i, p := range pkts {
				before := sw.Counters()
				out, err := sw.ProcessScratch(p.port, p.data)
				want := before
				want.Received++
				switch errKind(err) {
				case "":
					want.Emitted++
					if len(out.Packet) != len(p.data) {
						t.Fatalf("packet %d: emitted %d bytes of %d", i, len(out.Packet), len(p.data))
					}
				case "parser":
					want.ParserErrors++
				default:
					want.RuntimeErrors++
				}
				if got := sw.Counters(); got != want {
					t.Fatalf("packet %d (% x, %v): counters %+v, want %+v", i, p.data, err, got, want)
				}
			}
			if c := sw.Counters(); c.Received != c.Emitted+c.ParserErrors+c.RuntimeErrors {
				t.Errorf("counters %+v: Received is not Emitted + ParserErrors + RuntimeErrors", c)
			}
		})
	}
}

// Process hands out copies: what it returned stays intact while the switch
// reuses its scratch for later packets, which ProcessScratch's result does
// not.
func TestProcessResultsSurviveLaterCalls(t *testing.T) {
	sw := mustSwitch(t, forwardProg(1), BaseArch())
	kept, err := sw.Process(0, []byte{0, 0, 0, 41})
	if err != nil || len(kept) != 1 {
		t.Fatalf("kept = %+v, %v", kept, err)
	}
	scratch, err := sw.ProcessScratch(0, []byte{0, 0, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sw.Process(0, []byte{9, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	if kept[0].Port != 5 || kept[0].Packet[3] != 42 {
		t.Errorf("kept emission changed: %+v", kept[0])
	}
	if scratch.Packet[3] != 10 {
		t.Errorf("scratch emission = % x, want the last packet's bytes", scratch.Packet)
	}
}
