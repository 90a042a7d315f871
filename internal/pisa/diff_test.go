package pisa

import (
	"fmt"
	"math/rand"
	"slices"
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
					{Op: OpXor, Dst: "y", A: F("a"), B: F("b")},
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
					{Op: OpXor, Dst: "b", A: F("y"), B: F("c")},
				}}},
				Default: "mix",
			},
		},
	}
}

// TestDifferentialToyPrograms holds the executor to the reference semantics
// (oracle_test.go) on the package's toy programs: unicast, same-stage
// multi-table writes, and parser and mid-stage runtime errors. Inputs are
// seeded; a failure names the packet index.
func TestDifferentialToyPrograms(t *testing.T) {
	cases := []struct {
		name   string
		prog   Program
		pktLen int
	}{
		{"forward", forwardProg(1), 4},
		{"same-stage", sameStageProg(), 21},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2} {
			rng := rand.New(rand.NewSource(seed))
			pkts := make([]DiffPacket, 300)
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
				pkts[i] = DiffPacket{Port: uint16(rng.Intn(4)), Data: data}
			}
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) { DiffRun(t, tc.prog, BaseArch(), pkts) })
		}
	}
}

// randomProg draws a program that leans on everything the lowering must get
// right: several tables per stage, every match kind (exact keys both narrow
// enough for the direct index and wide enough for the sorted search),
// default and no-default misses, action data, predicated instructions and
// selects, stateful ops of every condition, update and output kind, and
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
						if in.Op == OpCsel || rng.Intn(3) == 0 {
							in.Pred, in.PredNeg = pick(others), rng.Intn(2) == 0
						}
						ad.Instrs = append(ad.Instrs, in)
					}
					if reg != "" && rng.Intn(4) != 0 {
						so := &StatefulOp{
							Register: reg, IndexField: pick(mine(fixed, narrow)), InField: pick(mine(others, fields)),
							ShiftField: pick(mine(fixed, narrow)),
							Cond: SaluCond{
								Kind: SaluCondKind(rng.Intn(3)), Cmp: CmpOp(rng.Intn(6)), Field: pick(mine(others, fields)),
								Off: int64(rng.Intn(9) - 4), Signed: rng.Intn(2) == 0,
							},
							True: SaluUpdate(rng.Intn(8)), False: SaluUpdate(rng.Intn(8)), Signed: rng.Intn(2) == 0,
						}
						if len(dsts) > 0 && rng.Intn(4) != 0 {
							so.Output, so.OutputField = SaluOutput(1+rng.Intn(3)), dsts[0]
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

// TestDifferentialRandomPrograms holds the plan executor to the reference on
// generated programs (randomProg): 60 seeds, each a fresh program and 400
// packets, on the extended architecture so every shift form and the RSAW
// update compile; every generated program must compile. Packets mix
// uniformly random bytes with small values that hit the tables' entries and
// stay inside the registers, plus the occasional truncated packet. An exact
// table keyed on one of the two fields nobody writes gives a program a
// dispatch field, so the seeds cover programs lowered to one pass and to a
// pass per dispatch value; the count of the latter is pinned.
func TestDifferentialRandomPrograms(t *testing.T) {
	const wantDispatch = 48
	dispatch := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProg(rng)
		if mustSwitch(t, prog, ExtendedArch()).c.dispatch != noDispatch {
			dispatch++
		}
		pkts := make([]DiffPacket, 400)
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
			pkts[i] = DiffPacket{Port: uint16(rng.Intn(4)), Data: data}
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { DiffRun(t, prog, ExtendedArch(), pkts) })
	}
	if dispatch != wantDispatch {
		t.Errorf("%d of 60 programs have a dispatch field, want %d", dispatch, wantDispatch)
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
