package pisa

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fanoutRecircProg multicasts every packet to group 7 and lets the egress
// port decide its fate: port 3 drops, port 4 recirculates while the
// ingress-decremented counter is non-zero, any other port emits. One packet
// therefore exercises a fan-out whose middle copy re-enters ingress while
// the outer fan-out is still iterating.
func fanoutRecircProg() Program {
	return Program{
		Fields: []FieldDecl{{Name: "n", Width: 8}, {Name: "nz", Width: 8}},
		Parser: []ExtractDecl{{Field: "n", Offset: 0, Bytes: 1}},
		Tables: []TableDecl{
			{
				Name: "dec", Stage: 0, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "dec", Instrs: []Instr{
					{Op: OpSub, Dst: "n", A: F("n"), B: Imm(1)},
					{Op: OpMov, Dst: FieldMcastGroup, A: Imm(7)},
				}}},
				Default: "dec",
			},
			{
				Name: "test", Stage: 1, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "t", Instrs: []Instr{
					{Op: OpNe, Dst: "nz", A: F("n"), B: Imm(0)},
				}}},
				Default: "t",
			},
			{
				Name: "fate", Stage: 0, Egress: true, Kind: MatchExact, Key: []string{FieldEgressPort},
				Actions: []ActionDecl{
					{Name: "drop", Instrs: []Instr{{Op: OpMov, Dst: FieldDrop, A: Imm(1)}}},
					{Name: "loop", Instrs: []Instr{{Op: OpMov, Dst: FieldRecirc, A: F("nz")}}},
				},
				Entries: []EntryDecl{{Value: 3, Action: "drop"}, {Value: 4, Action: "loop"}},
			},
		},
	}
}

// sameStageProg runs two tables in stage 0 — one stateless, one with a
// stateful op whose register index comes from the packet — and a third in
// stage 1 that consumes both write sets. An index ≥ 4 fails the stage after
// the first table already queued its writes.
func sameStageProg() Program {
	return Program{
		Fields: []FieldDecl{
			{Name: "a", Width: 32}, {Name: "b", Width: 32}, {Name: "idx", Width: 8},
			{Name: "x", Width: 32}, {Name: "y", Width: 16}, {Name: "old", Width: 32}, {Name: "ovf", Width: 8},
		},
		Registers: []RegisterDecl{{Name: "r", Width: 32, Size: 4, Stage: 0}},
		Parser: []ExtractDecl{
			{Field: "a", Offset: 0, Bytes: 4}, {Field: "b", Offset: 4, Bytes: 4},
			{Field: "idx", Offset: 8, Bytes: 1}, {Field: "x", Offset: 9, Bytes: 4},
			{Field: "y", Offset: 13, Bytes: 2}, {Field: "old", Offset: 15, Bytes: 4},
			{Field: "ovf", Offset: 19, Bytes: 1},
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
					Name: "acc",
					// The stateful op reads a, which this action also
					// rewrites: it must see the stage-entry value.
					Instrs: []Instr{{Op: OpAdd, Dst: "a", A: F("a"), B: Imm(1)}},
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
					{Op: OpMov, Dst: "b", A: F("y")},
				}}},
				Default: "mix",
			},
		},
	}
}

// TestDifferentialToyPrograms holds the executor to the reference semantics
// (oracle_test.go) on the package's toy programs: unicast, multicast
// fan-out, one-port and unset multicast groups, drops in both gresses,
// bounded and unbounded recirculation, recirculation out of a fan-out,
// same-stage multi-table writes, and parser and mid-stage runtime errors.
// Inputs are seeded; a failure names the packet index.
func TestDifferentialToyPrograms(t *testing.T) {
	groups := func(s *Switch) {
		s.SetMcastGroup(7, []uint16{3, 4, 9})
		s.SetMcastGroup(8, []uint16{6})
	}
	cases := []struct {
		name   string
		prog   Program
		pktLen int
		// first byte values to draw from (nil: any)
		lead []byte
	}{
		{"forward", forwardProg(1), 4, nil},
		{"mcast-drop", mcastDropProg(), 1, []byte{0, 1, 2, 3}},
		{"recirc", recircProg(), 1, []byte{1, 2, 3, 5, 17}},
		{"recirc-loop", recircLoopProg(), 1, nil},
		{"fanout-recirc", fanoutRecircProg(), 1, []byte{1, 2, 3, 4}},
		{"same-stage", sameStageProg(), 20, nil},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2} {
			rng := rand.New(rand.NewSource(seed))
			pkts := make([]DiffPacket, 300)
			for i := range pkts {
				data := make([]byte, tc.pktLen)
				rng.Read(data)
				if tc.lead != nil {
					data[0] = tc.lead[rng.Intn(len(tc.lead))]
				}
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
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) { DiffRun(t, tc.prog, BaseArch(), groups, pkts) })
		}
	}

	// A group of one port and an unset group, on the multicast program.
	one := mcastDropProg()
	one.Tables[0].Actions[0].Instrs[0].A = Imm(8)
	unset := mcastDropProg()
	unset.Tables[0].Actions[0].Instrs[0].A = Imm(9)
	for _, prog := range []Program{one, unset} {
		DiffRun(t, prog, BaseArch(), groups, []DiffPacket{{0, []byte{1}}, {1, []byte{2}}, {2, []byte{1}}})
	}
}

// randomProg draws a program that leans on everything the lowering must get
// right: several tables per stage, every match kind (exact keys both narrow
// enough for the direct index and wide enough for the sorted search),
// default and no-default misses, action data, predicated instructions and
// selects, stateful ops of every condition, update and output kind, and
// writes to the forwarding builtins (multicast, drop, recirculation). Every
// user field is parser-extracted, so any table may read any field in any
// stage the compiler lets it: a table may not read what a table placed
// before it in its stage writes, but it may read what it writes itself — a
// stateful op whose index, input, shift or condition field an instruction
// of its action rewrites is the hazard the executor holds writes back for.
// Within a stage the tables write disjoint fields, as the compiler demands.
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

	for _, egress := range []bool{false, true} {
		for stage := 0; stage < 3; stage++ {
			// Deal the stage's writable fields out to its tables, keeping a
			// share nobody writes so every table has fields to read.
			writable := append([]string(nil), fields[:8]...)
			if egress {
				writable = append(writable, FieldDrop, FieldRecirc)
			} else {
				writable = append(writable, FieldDrop, FieldEgressPort, FieldMcastGroup)
			}
			rng.Shuffle(len(writable), func(i, j int) { writable[i], writable[j] = writable[j], writable[i] })
			tables := 1 + rng.Intn(3)
			for ti := 0; ti < tables; ti++ {
				taken := (ti + 1) * len(writable) / (tables + 1) // dealt to this table and those before it
				own := writable[ti*len(writable)/(tables+1) : taken]
				name := fmt.Sprintf("t_%v_%d_%d", egress, stage, ti)
				td := TableDecl{Name: name, Stage: stage, Egress: egress, Kind: MatchKind(rng.Intn(4))}
				reg := ""
				if rng.Intn(2) == 0 {
					reg = "r_" + name
					p.Registers = append(p.Registers, RegisterDecl{
						Name: reg, Width: []int{8, 16, 32}[rng.Intn(3)], Size: 4, Stage: stage, Egress: egress,
					})
				}
				// Operands come from fields no table of the stage has been
				// dealt yet (or are the instruction's own destination), so no
				// instruction reads what another of its action, or a table
				// placed earlier, writes.
				var others []string
				for _, f := range fields {
					if !slices.Contains(writable[:taken], f) {
						others = append(others, f)
					}
				}
				// What a stateful op may read besides: its own table's fields.
				mine := func(from, domain []string) []string {
					for _, f := range own {
						if slices.Contains(domain, f) {
							from = append(from[:len(from):len(from)], f)
						}
					}
					return from
				}
				action := func(name string, params bool) ActionDecl {
					ad := ActionDecl{Name: name}
					dsts := append([]string(nil), own...)
					rng.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
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
					p.Tables = append(p.Tables, td)
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
				p.Tables = append(p.Tables, td)
			}
		}
	}
	return p
}

// TestDifferentialRandomPrograms holds the plan executor to the reference on
// generated programs (randomProg): 60 seeds, each a fresh program and 400
// packets, on the extended architecture so every shift form and the RSAW
// update compile. Packets mix uniformly random bytes with small values that
// hit the tables' entries and stay inside the registers, plus the occasional
// truncated packet.
func TestDifferentialRandomPrograms(t *testing.T) {
	compiled := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProg(rng)
		if _, err := New(prog, ExtendedArch()); err != nil {
			continue // over a stage budget: not this test's business
		}
		compiled++
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
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			DiffRun(t, prog, ExtendedArch(), func(s *Switch) {
				s.SetMcastGroup(1, []uint16{1, 2, 3})
				s.SetMcastGroup(2, []uint16{5})
			}, pkts)
		})
	}
	if compiled < 30 {
		t.Fatalf("only %d of 60 generated programs compiled", compiled)
	}
}

// Process hands out copies: what it returned stays intact while the switch
// reuses its scratch for later packets.
func TestProcessResultsSurviveLaterCalls(t *testing.T) {
	sw := mustSwitch(t, mcastDropProg(), BaseArch())
	sw.SetMcastGroup(7, []uint16{3, 4, 9})
	first, err := sw.Process(0, []byte{1})
	if err != nil || len(first) != 3 {
		t.Fatalf("first = %+v, %v", first, err)
	}
	fwd := mustSwitch(t, forwardProg(1), BaseArch())
	kept, err := fwd.Process(0, []byte{0, 0, 0, 41})
	if err != nil || len(kept) != 1 {
		t.Fatalf("kept = %+v, %v", kept, err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sw.Process(0, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := fwd.Process(0, []byte{9, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	for i, port := range []uint16{3, 4, 9} {
		if first[i].Port != port || len(first[i].Packet) != 1 || first[i].Packet[0] != 1 {
			t.Errorf("emission %d changed: %+v", i, first[i])
		}
	}
	if kept[0].Port != 5 || kept[0].Packet[3] != 42 {
		t.Errorf("kept emission changed: %+v", kept[0])
	}
}
