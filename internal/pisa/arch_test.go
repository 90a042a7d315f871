package pisa

import "testing"

func TestArchPresets(t *testing.T) {
	base, ext := BaseArch(), ExtendedArch()
	if base.IngressStages != 12 || base.EgressStages != 12 {
		t.Errorf("base stages = %d/%d, want 12/12", base.IngressStages, base.EgressStages)
	}
	if base.Features != (Features{}) {
		t.Error("base arch has extensions enabled")
	}
	want := Features{VariableShift: true, RSAW: true}
	if ext.Features != want {
		t.Errorf("extended features = %+v", ext.Features)
	}
	if base.Budget.VLIWSlots != 32 || base.Budget.StatefulALUs != 4 {
		t.Errorf("budget calibration drifted: %+v", base.Budget)
	}
}

func TestMatchKindStrings(t *testing.T) {
	for k, want := range map[MatchKind]string{
		MatchAlways: "always", MatchExact: "exact",
		MatchTernary: "ternary", MatchLPM: "lpm",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if MatchKind(99).String() != "unknown" {
		t.Error("unknown kind mislabeled")
	}
}

func TestOpcodeStrings(t *testing.T) {
	if OpAdd.String() != "add" || OpCsel.String() != "csel" {
		t.Error("opcode names wrong")
	}
	if Opcode(999).String() == "" {
		t.Error("unknown opcode should still render")
	}
	// Instr.String renders operands and predicates.
	in := Instr{Op: OpAdd, Dst: "x", A: F("a"), B: Imm(3), Pred: "p", PredNeg: true}
	if s := in.String(); s != "add x, a, #3 if !p" {
		t.Errorf("Instr.String() = %q", s)
	}
	if P(2).debug() != "$2" {
		t.Errorf("param operand renders as %q", P(2).debug())
	}
}

func TestCountersAccumulate(t *testing.T) {
	sw := mustSwitch(t, forwardProg(0), BaseArch())
	for i := 0; i < 3; i++ {
		if _, err := sw.Process(0, []byte{0, 0, 0, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c := sw.Counters()
	if c.Received != 3 || c.Emitted != 3 || c.Recirculated != 0 {
		t.Errorf("counters = %+v", c)
	}
	if _, err := sw.RegisterSnapshot("nope"); err == nil {
		t.Error("unknown register snapshot accepted")
	}
}
