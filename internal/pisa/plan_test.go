package pisa

import "testing"

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
