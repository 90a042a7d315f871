package pisa

import (
	"fmt"
	"math/rand"
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
