package pisa

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// PassSteps returns how many steps the ingress and the egress plan hold of
// the pass a packet whose dispatch field carries v takes, emitting or
// absorbing.
func (s *Switch) PassSteps(v uint8, absorb bool) (ingress, egress int) {
	passes := s.c.emit
	if absorb {
		passes = s.c.absorb
	}
	p := passes[s.c.passOf[v]]
	return len(p.ingress.steps), len(p.egress.steps)
}

// ReusedLookups returns how many lookups of the same pass reuse the row an
// earlier lookup matched instead of matching their own.
func (s *Switch) ReusedLookups(v uint8, absorb bool) int {
	passes := s.c.emit
	if absorb {
		passes = s.c.absorb
	}
	p, n := passes[s.c.passOf[v]], 0
	for _, pl := range []*plan{p.ingress, p.egress} {
		for _, t := range pl.tables {
			if t.reuse {
				n++
			}
		}
	}
	return n
}

// twoLPMProg has two LPM tables on m with the same prefixes, in stages 0
// and 2, each running its own action with its own action data per prefix;
// the second has a default action, and every entry carries more action data
// than its action reads. With write, a stage-1 table shifts m between them.
func twoLPMProg(write bool) Program {
	p := Program{
		Fields: []FieldDecl{{Name: "m", Width: 32}, {Name: "x", Width: 32}, {Name: "y", Width: 32}},
		Parser: []ExtractDecl{{Field: "m", Offset: 0, Bytes: 4}, {Field: "x", Offset: 4, Bytes: 4}, {Field: "y", Offset: 8, Bytes: 4}},
	}
	first := TableDecl{
		Name: "first", Stage: 0, Kind: MatchLPM, Key: []string{"m"},
		Actions: []ActionDecl{{Name: "a", Instrs: []Instr{{Op: OpAdd, Dst: "x", A: F("x"), B: P(0)}}}},
	}
	second := TableDecl{
		Name: "second", Stage: 2, Kind: MatchLPM, Key: []string{"m"},
		Actions: []ActionDecl{
			{Name: "b", Instrs: []Instr{{Op: OpSub, Dst: "y", A: F("y"), B: P(0)}}},
			{Name: "miss", Instrs: []Instr{{Op: OpMov, Dst: "y", A: Imm(7)}}},
		},
		Default: "miss",
	}
	for i, l := range []int{1, 9, 24} {
		prefix := uint64(1) << (32 - l)
		first.Entries = append(first.Entries, EntryDecl{Value: prefix, PrefixLen: l, Action: "a", Params: []uint32{uint32(i + 1), 99}})
		second.Entries = append(second.Entries, EntryDecl{Value: prefix, PrefixLen: l, Action: "b", Params: []uint32{uint32(10 * (i + 1)), 99}})
	}
	p.Tables = []TableDecl{first, second}
	if write {
		p.Tables = append(p.Tables, TableDecl{
			Name: "shift", Stage: 1, Kind: MatchAlways, Default: "shift",
			Actions: []ActionDecl{{Name: "shift", Instrs: []Instr{{Op: OpShrL, Dst: "m", A: F("m"), B: Imm(4)}}}},
		})
	}
	return p
}

// A lookup reuses the row an earlier one matched when both tables hold the
// same TCAM rows for the same key and nothing writes the key in between;
// either way the executor matches the reference on hits of every prefix,
// misses into the default action, and action data longer than the action
// reads.
func TestLPMRowReuse(t *testing.T) {
	for _, write := range []bool{false, true} {
		prog := twoLPMProg(write)
		want := 1
		if write {
			want = 0
		}
		if got := mustSwitch(t, prog, BaseArch()).ReusedLookups(0, false); got != want {
			t.Errorf("key written between the tables %v: %d lookups reuse a row, want %d", write, got, want)
		}
		rng := rand.New(rand.NewSource(1))
		pkts := make([]DiffPacket, 200)
		for i := range pkts {
			data := make([]byte, 12)
			rng.Read(data)
			binary.BigEndian.PutUint32(data, rng.Uint32()>>rng.Intn(33))
			pkts[i] = DiffPacket{Data: data}
		}
		DiffRun(t, prog, BaseArch(), pkts)
	}
}

// keyProg is one exact table keyed on key, which an always-table in stage 0
// may write: fields k8 (8 bits), k16 (16 bits) and v (32 bits), all parsed.
func keyProg(key []string, write string) Program {
	p := Program{
		Fields: []FieldDecl{{Name: "k8", Width: 8}, {Name: "k16", Width: 16}, {Name: "v", Width: 32}},
		Parser: []ExtractDecl{{Field: "k8", Offset: 0, Bytes: 1}, {Field: "k16", Offset: 1, Bytes: 2}, {Field: "v", Offset: 3, Bytes: 4}},
		Tables: []TableDecl{{
			Name: "t", Stage: 1, Kind: MatchExact, Key: key,
			Actions: []ActionDecl{{Name: "inc", Instrs: []Instr{{Op: OpAdd, Dst: "v", A: F("v"), B: Imm(1)}}}},
			Entries: []EntryDecl{{Value: 1, Action: "inc"}},
		}},
	}
	if write != "" {
		p.Tables = append(p.Tables, TableDecl{
			Name: "w", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "w", Instrs: []Instr{{Op: OpMov, Dst: write, A: Imm(1)}}}},
			Default: "w",
		})
	}
	return p
}

// A program with no dispatch field lowers to one plan per gress and
// variant, which every packet runs; one with a dispatch field gets a pass
// per value its entries name plus one for the rest, and a gress with no
// table keyed on it shares one plan between them.
func TestDispatchFieldChoosesPasses(t *testing.T) {
	none := map[string]Program{
		"always-tables only": forwardProg(1),
		"two-field key":      keyProg([]string{"k8", "k16"}, ""),
		"16-bit key":         keyProg([]string{"k16"}, ""),
		"key a table writes": keyProg([]string{"k8"}, "k8"),
	}
	for name, prog := range none {
		sw := mustSwitch(t, prog, BaseArch())
		if c := sw.c; c.dispatch != noDispatch || len(c.emit) != 1 || len(c.absorb) != 1 {
			t.Errorf("%s: dispatch field %d, %d emitting and %d absorbing passes; want none, 1 and 1",
				name, c.dispatch, len(c.emit), len(c.absorb))
		}
	}

	c := mustSwitch(t, sameStageProg(), BaseArch()).c
	if c.dispatch == noDispatch || c.ft.name(c.dispatch) != "idx" {
		t.Fatalf("dispatch field %d, want idx", c.dispatch)
	}
	// Entries name 0, 1, 2 and 4.
	if len(c.emit) != 5 || len(c.absorb) != 5 {
		t.Fatalf("%d emitting and %d absorbing passes, want 5 each", len(c.emit), len(c.absorb))
	}
	for _, v := range []uint8{3, 5, 255} {
		if c.passOf[v] != 4 {
			t.Errorf("value %d takes pass %d, want the miss pass 4", v, c.passOf[v])
		}
	}
	for _, passes := range [][]pass{c.emit, c.absorb} {
		for i := range passes {
			if passes[i].egress != passes[0].egress {
				t.Errorf("pass %d lowers egress again", i)
			}
			if i > 0 && passes[i].ingress == passes[0].ingress {
				t.Errorf("pass %d shares pass 0's ingress plan", i)
			}
		}
	}
}
