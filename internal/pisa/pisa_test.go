package pisa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// mustSwitch compiles a program or fails the test.
func mustSwitch(t *testing.T, prog Program, arch Arch) *Switch {
	t.Helper()
	sw, err := New(prog, arch)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return sw
}

// forwardProg returns a minimal program: parse a 32-bit value, add an
// immediate, forward to port 5.
func forwardProg(addend uint32) Program {
	return Program{
		Name:   "forward",
		Fields: []FieldDecl{{Name: "val", Width: 32}},
		Parser: []ExtractDecl{{Field: "val", Offset: 0, Bytes: 4}},
		Tables: []TableDecl{{
			Name: "fwd", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{
				Name: "go",
				Instrs: []Instr{
					{Op: OpAdd, Dst: "val", A: F("val"), B: Imm(addend)},
					{Op: OpMov, Dst: FieldEgressPort, A: Imm(5)},
				},
			}},
			Default: "go",
		}},
	}
}

func TestForwardAndModify(t *testing.T) {
	sw := mustSwitch(t, forwardProg(1), BaseArch())
	pkt := []byte{0, 0, 0, 41}
	out, err := sw.Process(1, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 5 {
		t.Fatalf("out = %+v", out)
	}
	if got := binary.BigEndian.Uint32(out[0].Packet); got != 42 {
		t.Errorf("val = %d, want 42", got)
	}
	if c := sw.Counters(); c.Received != 1 || c.Emitted != 1 {
		t.Errorf("counters = %+v", c)
	}
}

// aluCase runs a single-op program and returns the deparsed dst value.
func aluCase(t *testing.T, op Opcode, a, b uint32, bImm bool, arch Arch) uint32 {
	t.Helper()
	var bOp Operand
	if bImm {
		bOp = Imm(b)
	} else {
		bOp = F("b")
	}
	prog := Program{
		Fields: []FieldDecl{{Name: "a", Width: 32}, {Name: "b", Width: 32}, {Name: "dst", Width: 32}},
		Parser: []ExtractDecl{
			{Field: "a", Offset: 0, Bytes: 4},
			{Field: "b", Offset: 4, Bytes: 4},
			{Field: "dst", Offset: 8, Bytes: 4},
		},
		Tables: []TableDecl{{
			Name: "alu", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "run", Instrs: []Instr{
				{Op: op, Dst: "dst", A: F("a"), B: bOp},
			}}},
			Default: "run",
		}},
	}
	sw := mustSwitch(t, prog, arch)
	pkt := make([]byte, 12)
	binary.BigEndian.PutUint32(pkt[0:], a)
	binary.BigEndian.PutUint32(pkt[4:], b)
	out, err := sw.Process(0, pkt)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint32(out[0].Packet[8:])
}

func TestALUSemantics(t *testing.T) {
	base := BaseArch()
	cases := []struct {
		name string
		op   Opcode
		a, b uint32
		want uint32
	}{
		{"add", OpAdd, 3, 4, 7},
		{"add-wrap", OpAdd, 0xFFFFFFFF, 2, 1},
		{"sub", OpSub, 10, 3, 7},
		{"sub-borrow", OpSub, 0, 1, 0xFFFFFFFF},
		{"and", OpAnd, 0xFF00FF00, 0x0FF00FF0, 0x0F000F00},
		{"or", OpOr, 0xF0, 0x0F, 0xFF},
		{"xor", OpXor, 0xFF, 0x0F, 0xF0},
		{"min", OpMin, 3, 9, 3},
		{"max", OpMax, 3, 9, 9},
		{"minS", OpMinS, 0xFFFFFFFF /* -1 */, 1, 0xFFFFFFFF},
		{"maxS", OpMaxS, 0xFFFFFFFF /* -1 */, 1, 1},
		{"eq-true", OpEq, 7, 7, 1},
		{"eq-false", OpEq, 7, 8, 0},
		{"ne", OpNe, 7, 8, 1},
		{"ltu", OpLtU, 1, 0xFFFFFFFF, 1},
		{"lts", OpLtS, 0xFFFFFFFF, 1, 1}, // -1 < 1 signed
		{"geu", OpGeU, 0xFFFFFFFF, 1, 1},
		{"ges", OpGeS, 1, 0xFFFFFFFF, 1}, // 1 >= -1 signed
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := aluCase(t, c.op, c.a, c.b, false, base); got != c.want {
				t.Errorf("%s(%#x,%#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
			}
		})
	}
}

func TestShiftImmediates(t *testing.T) {
	base := BaseArch()
	if got := aluCase(t, OpShl, 1, 4, true, base); got != 16 {
		t.Errorf("shl = %d", got)
	}
	if got := aluCase(t, OpShrL, 0x80000000, 31, true, base); got != 1 {
		t.Errorf("shrl = %#x", got)
	}
	// Arithmetic shift replicates the sign bit.
	if got := aluCase(t, OpShrA, 0x80000000, 31, true, base); got != 0xFFFFFFFF {
		t.Errorf("shra = %#x", got)
	}
	// Shift >= 32 clamps (logical: 0, arithmetic: sign fill).
	if got := aluCase(t, OpShrL, 0xFFFF, 40, true, base); got != 0 {
		t.Errorf("shrl40 = %#x", got)
	}
	if got := aluCase(t, OpShrA, 0x80000000, 40, true, base); got != 0xFFFFFFFF {
		t.Errorf("shra40 = %#x", got)
	}
}

func TestVariableShiftFeatureGate(t *testing.T) {
	// Field-typed distances fail to compile on the base architecture …
	prog := Program{
		Fields: []FieldDecl{{Name: "a", Width: 32}, {Name: "b", Width: 32}, {Name: "dst", Width: 32}},
		Parser: []ExtractDecl{{Field: "a", Offset: 0, Bytes: 4}, {Field: "b", Offset: 4, Bytes: 4}},
		Tables: []TableDecl{{
			Name: "alu", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "run", Instrs: []Instr{
				{Op: OpShl, Dst: "dst", A: F("a"), B: F("b")},
			}}},
			Default: "run",
		}},
	}
	if _, err := New(prog, BaseArch()); err == nil || !strings.Contains(err.Error(), "VariableShift") {
		t.Fatalf("expected VariableShift error, got %v", err)
	}
	// … and execute correctly on the extended architecture.
	if got := aluCase(t, OpShl, 3, 5, false, ExtendedArch()); got != 96 {
		t.Errorf("variable shl = %d, want 96", got)
	}
}

func TestCselAndPredication(t *testing.T) {
	prog := Program{
		Fields: []FieldDecl{
			{Name: "p", Width: 8}, {Name: "a", Width: 32}, {Name: "b", Width: 32},
			{Name: "sel", Width: 32}, {Name: "pr", Width: 32},
		},
		Parser: []ExtractDecl{
			{Field: "p", Offset: 0, Bytes: 1},
			{Field: "a", Offset: 1, Bytes: 4},
			{Field: "b", Offset: 5, Bytes: 4},
			{Field: "sel", Offset: 9, Bytes: 4},
			{Field: "pr", Offset: 13, Bytes: 4},
		},
		Tables: []TableDecl{{
			Name: "t", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "run", Instrs: []Instr{
				{Op: OpCsel, Dst: "sel", A: F("a"), B: F("b"), Pred: "p"},
				{Op: OpMov, Dst: "pr", A: Imm(99), Pred: "p", PredNeg: true},
			}}},
			Default: "run",
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())

	run := func(p byte) (sel, pr uint32) {
		pkt := make([]byte, 17)
		pkt[0] = p
		binary.BigEndian.PutUint32(pkt[1:], 111)
		binary.BigEndian.PutUint32(pkt[5:], 222)
		out, err := sw.Process(0, pkt)
		if err != nil {
			t.Fatal(err)
		}
		return binary.BigEndian.Uint32(out[0].Packet[9:]), binary.BigEndian.Uint32(out[0].Packet[13:])
	}
	if sel, pr := run(1); sel != 111 || pr != 0 {
		t.Errorf("pred=1: sel=%d pr=%d", sel, pr)
	}
	if sel, pr := run(0); sel != 222 || pr != 99 {
		t.Errorf("pred=0: sel=%d pr=%d", sel, pr)
	}
}

func TestStatefulCounter(t *testing.T) {
	prog := Program{
		Fields:    []FieldDecl{{Name: "idx", Width: 8}, {Name: "inc", Width: 32}, {Name: "cnt", Width: 32}},
		Registers: []RegisterDecl{{Name: "ctr", Width: 32, Size: 4}},
		Parser: []ExtractDecl{
			{Field: "idx", Offset: 0, Bytes: 1},
			{Field: "inc", Offset: 1, Bytes: 4},
		},
		Tables: []TableDecl{{
			Name: "count", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{
				Name: "bump",
				Stateful: &StatefulOp{
					Register: "ctr", IndexField: "idx", InField: "inc",
					Cond: SaluCond{Kind: CondAlways}, True: UAddIn,
					Output: OutNew, OutputField: "cnt",
				},
			}},
			Default: "bump",
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	pkt := make([]byte, 5)
	pkt[0] = 2
	binary.BigEndian.PutUint32(pkt[1:], 10)
	for i := 0; i < 3; i++ {
		if _, err := sw.Process(0, pkt); err != nil {
			t.Fatal(err)
		}
	}
	regs, err := sw.RegisterSnapshot("ctr")
	if err != nil {
		t.Fatal(err)
	}
	if regs[2] != 30 || regs[0] != 0 {
		t.Errorf("regs = %v, want [0 0 30 0]", regs)
	}
}

func TestStatefulCondCmpOldIn(t *testing.T) {
	// Running max with OutOld: the exponent-stage pattern of FPISA.
	prog := Program{
		Fields:    []FieldDecl{{Name: "idx", Width: 8}, {Name: "e", Width: 8}, {Name: "old", Width: 8}},
		Registers: []RegisterDecl{{Name: "exp", Width: 8, Size: 2}},
		Parser: []ExtractDecl{
			{Field: "idx", Offset: 0, Bytes: 1},
			{Field: "e", Offset: 1, Bytes: 1},
			{Field: "old", Offset: 2, Bytes: 1},
		},
		Tables: []TableDecl{{
			Name: "expmax", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{
				Name: "maxexp",
				Stateful: &StatefulOp{
					Register: "exp", IndexField: "idx", InField: "e",
					Cond: SaluCond{Kind: CondCmpOldIn, Cmp: CmpGt}, // in > old
					True: USetIn, False: UKeepOld,
					Output: OutOld, OutputField: "old",
				},
			}},
			Default: "maxexp",
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	run := func(e byte) byte {
		out, err := sw.Process(0, []byte{0, e, 0})
		if err != nil {
			t.Fatal(err)
		}
		return out[0].Packet[2]
	}
	if old := run(10); old != 0 {
		t.Errorf("first old = %d", old)
	}
	if old := run(5); old != 10 {
		t.Errorf("smaller old = %d, want 10", old)
	}
	if old := run(12); old != 10 {
		t.Errorf("larger old = %d, want 10", old)
	}
	regs, _ := sw.RegisterSnapshot("exp")
	if regs[0] != 12 {
		t.Errorf("register = %d, want 12", regs[0])
	}
}

func TestStatefulRSAW(t *testing.T) {
	prog := Program{
		Fields: []FieldDecl{
			{Name: "idx", Width: 8}, {Name: "m", Width: 32},
			{Name: "d", Width: 8}, {Name: "out", Width: 32},
		},
		Registers: []RegisterDecl{{Name: "man", Width: 32, Size: 1}},
		Parser: []ExtractDecl{
			{Field: "idx", Offset: 0, Bytes: 1},
			{Field: "m", Offset: 1, Bytes: 4},
			{Field: "d", Offset: 5, Bytes: 1},
		},
		Tables: []TableDecl{{
			Name: "acc", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{
				Name: "rsaw",
				Stateful: &StatefulOp{
					Register: "man", IndexField: "idx", InField: "m", ShiftField: "d",
					Cond: SaluCond{Kind: CondAlways}, True: URsawAddIn,
					Signed: true, Output: OutNew, OutputField: "out",
				},
			}},
			Default: "rsaw",
		}},
	}
	// Requires the RSAW feature.
	if _, err := New(prog, BaseArch()); err == nil || !strings.Contains(err.Error(), "RSAW") {
		t.Fatalf("expected RSAW gate error, got %v", err)
	}
	sw := mustSwitch(t, prog, ExtendedArch())

	send := func(m int32, d byte) {
		pkt := make([]byte, 6)
		binary.BigEndian.PutUint32(pkt[1:], uint32(m))
		pkt[5] = d
		if _, err := sw.Process(0, pkt); err != nil {
			t.Fatal(err)
		}
	}
	send(100, 0) // reg = (0>>0)+100 = 100
	send(7, 2)   // reg = (100>>2)+7 = 32
	regs, _ := sw.RegisterSnapshot("man")
	if int32(regs[0]) != 32 {
		t.Errorf("RSAW result = %d, want 32", int32(regs[0]))
	}
	// Negative stored values shift arithmetically.
	send(-100, 0) // reg = 32 - 100 = -68
	send(0, 1)    // reg = -68>>1 = -34 (arithmetic)
	regs, _ = sw.RegisterSnapshot("man")
	if int32(regs[0]) != -34 {
		t.Errorf("signed RSAW = %d, want -34", int32(regs[0]))
	}
}

func TestStatefulOverflowSignal(t *testing.T) {
	prog := Program{
		Fields:    []FieldDecl{{Name: "idx", Width: 8}, {Name: "m", Width: 32}, {Name: "ov", Width: 8}},
		Registers: []RegisterDecl{{Name: "acc", Width: 32, Size: 1}},
		Parser: []ExtractDecl{
			{Field: "idx", Offset: 0, Bytes: 1},
			{Field: "m", Offset: 1, Bytes: 4},
			{Field: "ov", Offset: 5, Bytes: 1},
		},
		Tables: []TableDecl{{
			Name: "acc", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{
				Name: "add",
				Stateful: &StatefulOp{
					Register: "acc", IndexField: "idx", InField: "m",
					Cond: SaluCond{Kind: CondAlways}, True: UAddIn,
					Signed: true, OverflowField: "ov",
				},
			}},
			Default: "add",
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	send := func(m uint32) byte {
		pkt := make([]byte, 6)
		binary.BigEndian.PutUint32(pkt[1:], m)
		out, err := sw.Process(0, pkt)
		if err != nil {
			t.Fatal(err)
		}
		return out[0].Packet[5]
	}
	if ov := send(0x7FFFFFFF); ov != 0 {
		t.Errorf("no-overflow flagged")
	}
	if ov := send(1); ov != 1 {
		t.Errorf("signed overflow not flagged")
	}
}

func TestLPMTableInPipeline(t *testing.T) {
	// A miniature of the paper's Fig. 5 renormalization table: LPM on a
	// 32-bit field selecting per-distance shift actions.
	prog := Program{
		Fields: []FieldDecl{{Name: "m", Width: 32}, {Name: "out", Width: 32}},
		Parser: []ExtractDecl{
			{Field: "m", Offset: 0, Bytes: 4},
			{Field: "out", Offset: 4, Bytes: 4},
		},
		Tables: []TableDecl{{
			Name: "norm", Stage: 0, Kind: MatchLPM, Key: []string{"m"},
			Actions: []ActionDecl{
				{Name: "shr8", Instrs: []Instr{{Op: OpShrL, Dst: "out", A: F("m"), B: Imm(8)}}},
				{Name: "shl4", Instrs: []Instr{{Op: OpShl, Dst: "out", A: F("m"), B: Imm(4)}}},
				{Name: "keep", Instrs: []Instr{{Op: OpMov, Dst: "out", A: F("m")}}},
			},
			Entries: []EntryDecl{
				{Value: 0x80000000, PrefixLen: 1, Action: "shr8"}, // MSB set
				{Value: 0x00800000, PrefixLen: 9, Action: "keep"}, // bit 23 set
				{Value: 0, PrefixLen: 0, Action: "shl4"},          // default-ish
			},
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	run := func(m uint32) uint32 {
		pkt := make([]byte, 8)
		binary.BigEndian.PutUint32(pkt, m)
		out, err := sw.Process(0, pkt)
		if err != nil {
			t.Fatal(err)
		}
		return binary.BigEndian.Uint32(out[0].Packet[4:])
	}
	if got := run(0x90000000); got != 0x00900000 {
		t.Errorf("MSB-set: %#x", got)
	}
	if got := run(0x00C00000); got != 0x00C00000 {
		t.Errorf("bit23: %#x", got)
	}
	if got := run(0x00000010); got != 0x100 {
		t.Errorf("small: %#x", got)
	}
}

func TestExactMatchTable(t *testing.T) {
	prog := Program{
		Fields: []FieldDecl{{Name: "k", Width: 8}, {Name: "out", Width: 8}},
		Parser: []ExtractDecl{{Field: "k", Offset: 0, Bytes: 1}, {Field: "out", Offset: 1, Bytes: 1}},
		Tables: []TableDecl{{
			Name: "t", Stage: 0, Kind: MatchExact, Key: []string{"k"},
			Actions: []ActionDecl{
				{Name: "one", Instrs: []Instr{{Op: OpMov, Dst: "out", A: Imm(1)}}},
				{Name: "two", Instrs: []Instr{{Op: OpMov, Dst: "out", A: Imm(2)}}},
				{Name: "miss", Instrs: []Instr{{Op: OpMov, Dst: "out", A: Imm(0xFF)}}},
			},
			Entries: []EntryDecl{
				{Value: 10, Action: "one"},
				{Value: 20, Action: "two"},
			},
			Default: "miss",
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	run := func(k byte) byte {
		out, err := sw.Process(0, []byte{k, 0})
		if err != nil {
			t.Fatal(err)
		}
		return out[0].Packet[1]
	}
	if run(10) != 1 || run(20) != 2 || run(30) != 0xFF {
		t.Error("exact table routing wrong")
	}
}

// A key wider than denseKeyBits is found by search over the sorted entries
// rather than by direct index: two fields, the first in the key's high bits.
func TestExactMatchWideKey(t *testing.T) {
	prog := Program{
		Fields: []FieldDecl{{Name: "hi", Width: 32}, {Name: "lo", Width: 8}, {Name: "out", Width: 8}},
		Parser: []ExtractDecl{
			{Field: "hi", Offset: 0, Bytes: 4}, {Field: "lo", Offset: 4, Bytes: 1}, {Field: "out", Offset: 5, Bytes: 1},
		},
		Tables: []TableDecl{{
			Name: "t", Stage: 0, Kind: MatchExact, Key: []string{"hi", "lo"},
			Actions: []ActionDecl{{Name: "set", Instrs: []Instr{{Op: OpMov, Dst: "out", A: P(0)}}}},
			Entries: []EntryDecl{ // not in key order
				{Value: 0xDEADBEEF_07, Action: "set", Params: []uint32{3}},
				{Value: 0x00000001_00, Action: "set", Params: []uint32{1}},
				{Value: 0xFFFFFFFF_FF, Action: "set", Params: []uint32{4}},
				{Value: 0x00000001_01, Action: "set", Params: []uint32{2}},
			},
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	for _, c := range []struct {
		hi   uint32
		lo   byte
		want byte
	}{
		{1, 0, 1}, {1, 1, 2}, {0xDEADBEEF, 7, 3}, {0xFFFFFFFF, 0xFF, 4},
		{1, 2, 0}, {0, 1, 0}, {0xDEADBEEF, 0, 0}, // misses leave out alone
	} {
		pkt := binary.BigEndian.AppendUint32(nil, c.hi)
		out, err := sw.Process(0, append(pkt, c.lo, 0))
		if err != nil || len(out) != 1 {
			t.Fatalf("out = %+v, %v", out, err)
		}
		if got := out[0].Packet[5]; got != c.want {
			t.Errorf("key %#x/%#x: out = %d, want %d", c.hi, c.lo, got, c.want)
		}
	}
}

// The executor addresses the builtin fields by constant fieldID; the
// constants must agree with what the field table registers.
func TestBuiltinFieldIDs(t *testing.T) {
	ft, err := newFieldTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]fieldID{
		FieldEgressPort: fidEgressPort, FieldIngressPort: fidIngressPort,
	} {
		if got, err := ft.lookup(name); err != nil || got != want {
			t.Errorf("%s: id %d (%v), want %d", name, got, err, want)
		}
	}
	if len(builtinFields) != int(fidIngressPort)+1 {
		t.Errorf("%d builtin fields, %d constants", len(builtinFields), int(fidIngressPort)+1)
	}
}

func TestCompileErrors(t *testing.T) {
	base := BaseArch()
	f := []FieldDecl{{Name: "a", Width: 32}, {Name: "b", Width: 32}}
	p := []ExtractDecl{{Field: "a", Offset: 0, Bytes: 4}}

	cases := []struct {
		name string
		prog Program
		want string
	}{
		{
			"unknown opcode",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "t", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Instrs: []Instr{{Op: OpCsel + 1, Dst: "b", A: Imm(1)}}}}, Default: "x"},
			}},
			"unknown opcode",
		},
		{
			"backward dependency",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "w", Stage: 1, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Instrs: []Instr{{Op: OpMov, Dst: "b", A: Imm(1)}}}}, Default: "x"},
				{Name: "r", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "y", Instrs: []Instr{{Op: OpMov, Dst: "a", A: F("b")}}}}, Default: "y"},
			}},
			"backward",
		},
		{
			// Ingress writes only "a": an egress reader of "b" may lean on
			// ingress writers, but there is none.
			"egress reads a field no gress produces",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "w", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Instrs: []Instr{{Op: OpMov, Dst: "a", A: Imm(1)}}}}, Default: "x"},
				{Name: "r", Stage: 0, Egress: true, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "y", Instrs: []Instr{{Op: OpMov, Dst: "a", A: F("b")}}}}, Default: "y"},
			}},
			"nothing produces",
		},
		{
			"same stage write conflict",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "t1", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Instrs: []Instr{{Op: OpMov, Dst: "b", A: Imm(1)}}}}, Default: "x"},
				{Name: "t2", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "y", Instrs: []Instr{{Op: OpMov, Dst: "b", A: Imm(2)}}}}, Default: "y"},
			}},
			"both write",
		},
		{
			"intra-action RAW",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "t", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Instrs: []Instr{
						{Op: OpAdd, Dst: "b", A: F("a"), B: Imm(1)},
						{Op: OpAdd, Dst: "a", A: F("b"), B: Imm(1)},
					}}}, Default: "x"},
			}},
			"parallel",
		},
		{
			"double write same container",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "t", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Instrs: []Instr{
						{Op: OpMov, Dst: "b", A: Imm(1)},
						{Op: OpMov, Dst: "b", A: Imm(2)},
					}}}, Default: "x"},
			}},
			"written twice",
		},
		{
			"unknown field",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "t", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Instrs: []Instr{{Op: OpMov, Dst: "zzz", A: Imm(1)}}}}, Default: "x"},
			}},
			"unknown field",
		},
		{
			"register shared by two tables",
			Program{
				Fields:    []FieldDecl{{Name: "i", Width: 8}},
				Registers: []RegisterDecl{{Name: "r", Width: 32, Size: 1}},
				Parser:    []ExtractDecl{{Field: "i", Offset: 0, Bytes: 1}},
				Tables: []TableDecl{
					{Name: "t1", Stage: 0, Kind: MatchAlways,
						Actions: []ActionDecl{{Name: "x", Stateful: &StatefulOp{Register: "r", IndexField: "i", Cond: SaluCond{Kind: CondAlways}}}}, Default: "x"},
					{Name: "t2", Stage: 0, Kind: MatchAlways,
						Actions: []ActionDecl{{Name: "y", Stateful: &StatefulOp{Register: "r", IndexField: "i", Cond: SaluCond{Kind: CondAlways}}}}, Default: "y"},
				},
			},
			"one stateful access",
		},
		{
			"register width",
			Program{Fields: f, Registers: []RegisterDecl{{Name: "r", Width: 12, Size: 1}}},
			"width 12",
		},
		{
			"duplicate register",
			Program{Fields: f, Registers: []RegisterDecl{{Name: "r", Width: 8, Size: 1}, {Name: "r", Width: 8, Size: 1}}},
			"duplicate register",
		},
		{
			"unknown register",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "t", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Stateful: &StatefulOp{Register: "r", IndexField: "a"}}}, Default: "x"},
			}},
			"unknown register",
		},
		{
			"duplicate field",
			Program{Fields: []FieldDecl{{Name: "a", Width: 32}, {Name: "a", Width: 8}}},
			"duplicate field",
		},
		{
			"csel without pred",
			Program{Fields: f, Parser: p, Tables: []TableDecl{
				{Name: "t", Stage: 0, Kind: MatchAlways,
					Actions: []ActionDecl{{Name: "x", Instrs: []Instr{{Op: OpCsel, Dst: "b", A: F("a"), B: Imm(0)}}}}, Default: "x"},
			}},
			"Pred",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.prog, base)
			if err == nil {
				t.Fatal("expected compile error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestAutoStageAssignment(t *testing.T) {
	prog := Program{
		Fields: []FieldDecl{{Name: "a", Width: 32}, {Name: "b", Width: 32}, {Name: "c", Width: 32}},
		Parser: []ExtractDecl{{Field: "a", Offset: 0, Bytes: 4}, {Field: "c", Offset: 4, Bytes: 4}},
		Tables: []TableDecl{
			{Name: "t1", Stage: -1, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "x", Instrs: []Instr{{Op: OpAdd, Dst: "b", A: F("a"), B: Imm(1)}}}}, Default: "x"},
			{Name: "t2", Stage: -1, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "y", Instrs: []Instr{{Op: OpAdd, Dst: "c", A: F("b"), B: Imm(1)}}}}, Default: "y"},
		},
	}
	sw := mustSwitch(t, prog, BaseArch())
	if got := sw.Utilization().StagesUsed(); got != 2 {
		t.Errorf("stages used = %d, want 2 (t2 must follow t1)", got)
	}
	// And the chain computes correctly: c, written back, carries a+2.
	pkt := make([]byte, 8)
	binary.BigEndian.PutUint32(pkt, 40)
	out, err := sw.ProcessScratch(0, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(out.Packet[4:]); got != 42 {
		t.Errorf("emitted c = %d, want 42 (a+2 through b)", got)
	}
}

func TestResourceBudgetEnforced(t *testing.T) {
	arch := BaseArch()
	arch.Budget.VLIWSlots = 1
	prog := Program{
		Fields: []FieldDecl{{Name: "a", Width: 32}, {Name: "b", Width: 32}},
		Parser: []ExtractDecl{{Field: "a", Offset: 0, Bytes: 4}},
		Tables: []TableDecl{{
			Name: "t", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "x", Instrs: []Instr{
				{Op: OpMov, Dst: "b", A: Imm(1)},
				{Op: OpMov, Dst: FieldEgressPort, A: Imm(1)},
			}}},
			Default: "x",
		}},
	}
	if _, err := New(prog, arch); err == nil || !strings.Contains(err.Error(), "VLIW") {
		t.Fatalf("expected VLIW budget error, got %v", err)
	}
}

func TestParserShortPacket(t *testing.T) {
	sw := mustSwitch(t, forwardProg(0), BaseArch())
	if _, err := sw.Process(0, []byte{1, 2}); err == nil {
		t.Fatal("expected short-packet parse error")
	}
	if sw.Counters().ParserErrors != 1 {
		t.Error("parser error not counted")
	}
}

func TestUtilizationReport(t *testing.T) {
	sw := mustSwitch(t, forwardProg(1), BaseArch())
	u := sw.Utilization()
	if u.StagesUsed() != 1 {
		t.Errorf("stages used = %d", u.StagesUsed())
	}
	rows := u.Rows()
	var vliw ResourceRow
	for _, r := range rows {
		if r.Resource == "VLIW instruction slots" {
			vliw = r
		}
	}
	// 2 instructions of 32 slots in one stage of 12.
	if vliw.MaxStagePct < 6 || vliw.MaxStagePct > 7 {
		t.Errorf("VLIW max pct = %.2f, want 2/32", vliw.MaxStagePct)
	}
	if !strings.Contains(u.String(), "Stages used: 1 / 12") {
		t.Errorf("report:\n%s", u.String())
	}
}

func TestNarrowContainerArithmetic(t *testing.T) {
	// 8-bit container wraps at 256 and sign-extends for signed ops.
	prog := Program{
		Fields: []FieldDecl{{Name: "x", Width: 8}, {Name: "lt", Width: 8}},
		Parser: []ExtractDecl{{Field: "x", Offset: 0, Bytes: 1}, {Field: "lt", Offset: 1, Bytes: 1}},
		Tables: []TableDecl{{
			Name: "t", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "a", Instrs: []Instr{
				{Op: OpLtS, Dst: "lt", A: F("x"), B: Imm(0)}, // x < 0 signed?
			}}},
			Default: "a",
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	out, err := sw.Process(0, []byte{0xFF, 0}) // 0xFF as 8-bit signed is -1
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Packet[1] != 1 {
		t.Error("8-bit field not sign-extended for signed compare")
	}
	out, err = sw.Process(0, []byte{0x7F, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Packet[1] != 0 {
		t.Error("positive 8-bit value misclassified as negative")
	}
}

// The plan writes straight to the PHV and relies on the compiler for stage
// semantics (see plan): no table may read a field another table of its stage
// writes — as an operand, a predicate, a match key or a stateful op's index
// — whichever of the two is placed first. Were this rule relaxed, a reader
// placed after the writer would see the written value instead of the
// stage-entry one, and grouping a stage's steps by kind could move a reader
// placed first after the writer.
func TestSameStageReadOfEarlierWriteRejected(t *testing.T) {
	fields := []FieldDecl{{Name: "x", Width: 8}, {Name: "o", Width: 8}}
	parser := []ExtractDecl{{Field: "x", Offset: 0, Bytes: 1}, {Field: "o", Offset: 1, Bytes: 1}}
	writer := TableDecl{
		Name: "w", Stage: 0, Kind: MatchAlways,
		Actions: []ActionDecl{{Name: "w", Instrs: []Instr{{Op: OpAdd, Dst: "x", A: F("x"), B: Imm(1)}}}}, Default: "w",
	}
	readers := map[string]TableDecl{
		"operand": {Name: "r", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "r", Instrs: []Instr{{Op: OpMov, Dst: "o", A: F("x")}}}}, Default: "r"},
		"predicate": {Name: "r", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "r", Instrs: []Instr{{Op: OpMov, Dst: "o", A: Imm(1), Pred: "x"}}}}, Default: "r"},
		"key": {Name: "r", Stage: 0, Kind: MatchExact, Key: []string{"x"},
			Actions: []ActionDecl{{Name: "r", Instrs: []Instr{{Op: OpMov, Dst: "o", A: Imm(1)}}}},
			Entries: []EntryDecl{{Value: 1, Action: "r"}}},
		"salu index": {Name: "r", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "r", Stateful: &StatefulOp{
				Register: "q", IndexField: "x", True: UZero, Output: OutOld, OutputField: "o",
			}}}, Default: "r"},
	}
	for name, reader := range readers {
		prog := Program{Fields: fields, Parser: parser, Tables: []TableDecl{writer, reader}}
		if reader.Actions[0].Stateful != nil {
			prog.Registers = []RegisterDecl{{Name: "q", Width: 8, Size: 4}}
		}
		if _, err := New(prog, BaseArch()); err == nil || !strings.Contains(err.Error(), "cannot flow backward") {
			t.Errorf("%s reading an earlier table's write in its stage: err = %v", name, err)
		}
		// Placed before the writer, the reader is refused too, by name.
		prog.Tables = []TableDecl{reader, writer}
		want := `ingress table "r" (stage 0): reads field "x", which table "w" of its stage writes`
		if _, err := New(prog, BaseArch()); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s reading ahead of the writer: err = %v, want it to say %s", name, err, want)
		}
		// A stage later, it reads the written value.
		prog.Tables[0].Stage = 1
		if _, err := New(prog, BaseArch()); err != nil {
			t.Errorf("%s reading in the writer's next stage: %v", name, err)
		}
	}
}

// A byte extract is written back exactly when some table writes its field,
// so only written-back extracts must not overlap. Here the 32-bit w and the
// 8-bit r share byte 1; a table writes w and none writes r, so the program
// compiles, w leaves incremented — its low byte only — and r's byte leaves
// as it came. Once a table writes r too, the two writebacks overlap and the
// program is refused.
func TestWritebackFollowsTheWriters(t *testing.T) {
	prog := Program{
		Fields: []FieldDecl{{Name: "w", Width: 32}, {Name: "r", Width: 8}, {Name: "t", Width: 8}},
		Parser: []ExtractDecl{{Field: "w", Offset: 0, Bytes: 4}, {Field: "r", Offset: 1, Bytes: 1}, {Field: "t", Offset: 4, Bytes: 1}},
		Tables: []TableDecl{{
			Name: "inc", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "inc", Instrs: []Instr{
				{Op: OpAdd, Dst: "w", A: F("w"), B: Imm(1)},
				{Op: OpAdd, Dst: "t", A: F("r"), B: Imm(1)},
			}}},
			Default: "inc",
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	out, err := sw.Process(0, []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60})
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x10, 0x20, 0x30, 0x41, 0x21, 0x60}; !bytes.Equal(out[0].Packet, want) {
		t.Errorf("packet = % x, want % x", out[0].Packet, want)
	}

	prog.Tables[0].Actions[0].Instrs[1].Dst = "r"
	if _, err := New(prog, BaseArch()); err == nil || !strings.Contains(err.Error(), "writeback range overlaps") {
		t.Errorf("overlapping writebacks: err = %v", err)
	}
}

// hazardProg is a read-after-write inside an action: its instructions
// rewrite every field its own stateful op reads — index, input, shift
// distance and condition.
func hazardProg() Program {
	return Program{
		Fields: []FieldDecl{
			{Name: "idx", Width: 8}, {Name: "in", Width: 32}, {Name: "sh", Width: 8},
			{Name: "cf", Width: 8}, {Name: "out", Width: 32},
		},
		Registers: []RegisterDecl{{Name: "r", Width: 32, Size: 4}},
		Parser: []ExtractDecl{
			{Field: "idx", Offset: 0, Bytes: 1}, {Field: "in", Offset: 1, Bytes: 4}, {Field: "sh", Offset: 5, Bytes: 1},
			{Field: "cf", Offset: 6, Bytes: 1}, {Field: "out", Offset: 7, Bytes: 4},
		},
		Tables: []TableDecl{{
			Name: "t", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{
				Name: "a",
				Instrs: []Instr{
					{Op: OpAdd, Dst: "idx", A: F("idx"), B: Imm(1)},
					{Op: OpAdd, Dst: "in", A: F("in"), B: Imm(1000)},
					{Op: OpAdd, Dst: "sh", A: F("sh"), B: Imm(1)},
					{Op: OpXor, Dst: "cf", A: F("cf"), B: Imm(1)},
				},
				Stateful: &StatefulOp{
					Register: "r", IndexField: "idx", InField: "in", ShiftField: "sh",
					Cond: SaluCond{Kind: CondPhv, Field: "cf", Cmp: CmpNe},
					True: URsawAddIn, False: UKeepOld, Output: OutNew, OutputField: "out",
				},
			}},
			Default: "a",
		}},
	}
}

// A stateful op runs against the stage-entry PHV like its action's
// instructions, so it may not read a field one of them writes: the compiler
// refuses it and names the field, for each of the op's reads alone, and
// accepts the action once no instruction writes what the op reads. That
// rule is what lets every plan step write the PHV directly.
func TestStatefulOpReadingActionWriteRefused(t *testing.T) {
	if _, err := New(hazardProg(), ExtendedArch()); err == nil || !strings.Contains(err.Error(), "stateful op reads field") {
		t.Fatalf("hazardProg compiled: %v", err)
	}
	for i, field := range []string{"idx", "in", "sh", "cf"} {
		prog := hazardProg()
		a := &prog.Tables[0].Actions[0]
		a.Instrs = a.Instrs[i : i+1]
		_, err := New(prog, ExtendedArch())
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("stateful op reads field %q", field)) {
			t.Errorf("instruction rewriting %s: err = %v", field, err)
		}
	}
	prog := hazardProg()
	prog.Tables[0].Actions[0].Instrs = nil
	if _, err := New(prog, ExtendedArch()); err != nil {
		t.Errorf("stateful op alone: %v", err)
	}
	// The op may read its own output field: it reads before it writes.
	prog.Tables[0].Actions[0].Stateful.OutputField = "in"
	if _, err := New(prog, ExtendedArch()); err != nil {
		t.Errorf("stateful op reading its own output: %v", err)
	}
}

// A stateful op that fails kills its packet and nothing else: register
// updates of earlier stages stay, and the writes its stage made before it
// failed do not leak into the next packet.
func TestStatefulErrorMidPipeline(t *testing.T) {
	prog := Program{
		Fields: []FieldDecl{
			{Name: "z", Width: 8}, {Name: "idx", Width: 8}, {Name: "in", Width: 32}, {Name: "out", Width: 32},
			{Name: "bump", Width: 32},
		},
		Registers: []RegisterDecl{
			{Name: "seen", Width: 32, Size: 1},
			{Name: "q", Width: 32, Size: 2},
		},
		Parser: []ExtractDecl{
			{Field: "z", Offset: 0, Bytes: 1}, {Field: "idx", Offset: 1, Bytes: 1},
			{Field: "in", Offset: 2, Bytes: 4}, {Field: "out", Offset: 6, Bytes: 4},
			{Field: "bump", Offset: 10, Bytes: 4},
		},
		Tables: []TableDecl{
			{
				Name: "count", Stage: 0, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "c", Stateful: &StatefulOp{
					Register: "seen", IndexField: "z", InField: "idx", True: UAddIn,
				}}},
				Default: "c",
			},
			{
				Name: "acc", Stage: 1, Kind: MatchAlways,
				Actions: []ActionDecl{{
					Name:   "a",
					Instrs: []Instr{{Op: OpAdd, Dst: "bump", A: F("in"), B: Imm(1)}}, // runs before the op fails
					Stateful: &StatefulOp{
						Register: "q", IndexField: "idx", InField: "in", True: UAddIn,
						Output: OutNew, OutputField: "out",
					},
				}},
				Default: "a",
			},
			{
				Name: "after", Stage: 2, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "f", Instrs: []Instr{{Op: OpMov, Dst: FieldEgressPort, A: Imm(3)}}}},
				Default: "f",
			},
		},
	}
	sw := mustSwitch(t, prog, BaseArch())

	out, err := sw.Process(0, []byte{0, 5, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 0}) // q has no element 5
	if err == nil || !strings.Contains(err.Error(), `register "q" index 5 out of range 2`) || out != nil {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
	if c := sw.Counters(); c.RuntimeErrors != 1 || c.Emitted != 0 || c.Received != 1 {
		t.Errorf("counters = %+v", c)
	}
	if seen, _ := sw.RegisterSnapshot("seen"); seen[0] != 5 {
		t.Errorf("seen = %v: the earlier stage's update must stay", seen)
	}

	out, err = sw.Process(0, []byte{0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0})
	if err != nil || len(out) != 1 || out[0].Port != 3 {
		t.Fatalf("out = %+v, %v", out, err)
	}
	if want := []byte{0, 1, 0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0, 8}; string(out[0].Packet) != string(want) {
		t.Errorf("packet = % x, want % x", out[0].Packet, want)
	}
	if q, _ := sw.RegisterSnapshot("q"); q[0] != 0 || q[1] != 7 {
		t.Errorf("q = %v, want [0 7]", q)
	}
	if c := sw.Counters(); c.RuntimeErrors != 1 || c.Emitted != 1 || c.Received != 2 {
		t.Errorf("counters = %+v", c)
	}
}

// A register lives in the stage and gress of the one table that accesses
// it: an auto-placed stateful table lands after its producers and takes its
// register there, SRAM and stateful ALU included. A register no table
// accesses has no stage and is refused, as is one two tables access.
func TestRegisterFollowsItsTable(t *testing.T) {
	prog := Program{
		Fields: []FieldDecl{
			{Name: "a", Width: 32}, {Name: "b", Width: 32}, {Name: "idx", Width: 8},
			{Name: "out", Width: 32}, {Name: "hi", Width: 32},
		},
		Registers: []RegisterDecl{{Name: "acc", Width: 32, Size: 4}, {Name: "peak", Width: 32, Size: 4}},
		Parser: []ExtractDecl{
			{Field: "a", Offset: 0, Bytes: 4}, {Field: "idx", Offset: 4, Bytes: 1},
			{Field: "out", Offset: 5, Bytes: 4}, {Field: "hi", Offset: 9, Bytes: 4},
		},
		Tables: []TableDecl{
			{Name: "inc", Stage: -1, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "i", Instrs: []Instr{{Op: OpAdd, Dst: "b", A: F("a"), B: Imm(1)}}}}, Default: "i"},
			{Name: "sum", Stage: -1, Kind: MatchAlways, // reads b: stage 1
				Actions: []ActionDecl{{Name: "s", Stateful: &StatefulOp{
					Register: "acc", IndexField: "idx", InField: "b", True: UAddIn, Output: OutNew, OutputField: "out",
				}}}, Default: "s"},
			{Name: "max", Stage: 3, Egress: true, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "m", Stateful: &StatefulOp{
					Register: "peak", IndexField: "idx", InField: "out", True: UMaxIn, Output: OutNew, OutputField: "hi",
				}}}, Default: "m"},
		},
	}
	t.Run("placed", func(t *testing.T) {
		sw := mustSwitch(t, prog, BaseArch())
		for s, u := range sw.Utilization().Stages {
			want := 0
			if s == 1 || s == 3 {
				want = 1
			}
			if u.SRAMBlocks != want || u.StatefulALUs != want {
				t.Errorf("stage %d: %d SRAM blocks, %d stateful ALUs, want %d each", s, u.SRAMBlocks, u.StatefulALUs, want)
			}
		}
		for n := byte(1); n <= 2; n++ {
			out, err := sw.Process(0, []byte{0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0})
			if err != nil {
				t.Fatal(err)
			}
			if want := []byte{0, 0, 0, 4, 2, 0, 0, 0, 5 * n, 0, 0, 0, 5 * n}; string(out[0].Packet) != string(want) {
				t.Errorf("packet %d = % x, want % x", n, out[0].Packet, want)
			}
		}
	})
	t.Run("unaccessed", func(t *testing.T) {
		p := prog
		p.Registers = append(p.Registers[:2:2], RegisterDecl{Name: "idle", Width: 8, Size: 1})
		if _, err := New(p, BaseArch()); err == nil || !strings.Contains(err.Error(), `register "idle": no table accesses it`) {
			t.Errorf("unaccessed register: err = %v", err)
		}
	})
	t.Run("shared", func(t *testing.T) {
		p := prog
		p.Tables = append([]TableDecl(nil), prog.Tables...)
		p.Tables[2].Actions = []ActionDecl{{Name: "m", Stateful: &StatefulOp{
			Register: "acc", IndexField: "idx", InField: "out", True: UMaxIn, Output: OutNew, OutputField: "hi",
		}}}
		p.Registers = p.Registers[:1]
		if _, err := New(p, BaseArch()); err == nil || !strings.Contains(err.Error(), "one stateful access") {
			t.Errorf("register shared by two tables: err = %v", err)
		}
	})
}

// What a stage writes — here a stateful op's running count — the next stage
// reads.
func TestNextStageSeesWrite(t *testing.T) {
	prog := Program{
		Fields:    []FieldDecl{{Name: "z", Width: 8}, {Name: "one", Width: 8}, {Name: "cnt", Width: 32}, {Name: "dbl", Width: 32}},
		Registers: []RegisterDecl{{Name: "ctr", Width: 32, Size: 1}},
		Parser: []ExtractDecl{
			{Field: "z", Offset: 0, Bytes: 1}, {Field: "one", Offset: 1, Bytes: 1},
			{Field: "cnt", Offset: 2, Bytes: 4}, {Field: "dbl", Offset: 6, Bytes: 4},
		},
		Tables: []TableDecl{
			{
				Name: "bump", Stage: 0, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "b", Stateful: &StatefulOp{
					Register: "ctr", IndexField: "z", InField: "one", True: UAddIn, Output: OutNew, OutputField: "cnt",
				}}},
				Default: "b",
			},
			{
				Name: "use", Stage: 1, Kind: MatchAlways,
				Actions: []ActionDecl{{Name: "u", Instrs: []Instr{
					{Op: OpAdd, Dst: "dbl", A: F("cnt"), B: F("cnt")},
				}}},
				Default: "u",
			},
		},
	}
	sw := mustSwitch(t, prog, BaseArch())
	for n := byte(1); n <= 2; n++ {
		out, err := sw.Process(0, []byte{0, 1, 9, 9, 9, 9, 9, 9, 9, 9})
		if err != nil || len(out) != 1 {
			t.Fatalf("out = %+v, %v", out, err)
		}
		if want := []byte{0, 1, 0, 0, 0, n, 0, 0, 0, 2 * n}; string(out[0].Packet) != string(want) {
			t.Errorf("packet %d = % x, want % x", n, out[0].Packet, want)
		}
	}
}
