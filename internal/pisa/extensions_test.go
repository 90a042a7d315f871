package pisa

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParserBitExtracts(t *testing.T) {
	// Split an FP32 header into sign/exponent/fraction at parse time, the
	// way a P4 header declaration would.
	prog := Program{
		Fields: []FieldDecl{
			{Name: "v", Width: 32}, {Name: "sign", Width: 8},
			{Name: "e", Width: 16}, {Name: "frac", Width: 32},
			{Name: "out", Width: 32},
		},
		Parser: []ExtractDecl{
			{Field: "v", Offset: 0, Bytes: 4},
			{Field: "out", Offset: 4, Bytes: 4},
		},
		ParserBits: []BitExtractDecl{
			{Field: "sign", BitOffset: 0, Bits: 1},
			{Field: "e", BitOffset: 1, Bits: 8},
			{Field: "frac", BitOffset: 9, Bits: 23},
		},
		Tables: []TableDecl{{
			Name: "t", Stage: 0, Kind: MatchAlways,
			Actions: []ActionDecl{{Name: "a", Instrs: []Instr{
				{Op: OpMov, Dst: "out", A: F("frac")},
			}}},
			Default: "a",
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	pkt := make([]byte, 8)
	binary.BigEndian.PutUint32(pkt, math.Float32bits(-1.5)) // sign 1, exp 127, frac 0x400000
	out, err := sw.Process(0, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(out[0].Packet[4:]); got != 0x400000 {
		t.Errorf("frac = %#x, want 0x400000", got)
	}
}

// TestParserBitWindowsEveryAlignment holds the parser to an in-test
// reference. A bit field of every alignment 0–39 and width 1–32, the only
// extract of its program, reads as a bit-by-bit read of the packet from
// every length that holds it, up to two past its extent; every shorter
// length is refused with an error naming the field.
func TestParserBitWindowsEveryAlignment(t *testing.T) {
	bitRead := func(pkt []byte, off, n int) (v uint32) {
		for bit := off; bit < off+n; bit++ {
			v = v<<1 | uint32(pkt[bit/8]>>(7-bit%8)&1)
		}
		return v
	}
	rng := rand.New(rand.NewSource(3))
	pkt := make([]byte, 12)
	for off := 0; off < 40; off++ {
		for n := 1; n <= 32; n++ {
			sw, err := New(Program{
				Fields:     []FieldDecl{{Name: "f", Width: 32}},
				ParserBits: []BitExtractDecl{{Field: "f", BitOffset: off, Bits: n}},
			}, BaseArch())
			if err != nil {
				t.Fatal(err)
			}
			extent := (off + n + 7) / 8
			for l := 0; l <= extent+2; l++ {
				rng.Read(pkt)
				got, err := sw.ParseField(pkt[:l], "f")
				switch {
				case l < extent && (err == nil || !strings.Contains(err.Error(), `"f"`)):
					t.Fatalf("bits %d+%d, %d bytes: error %v, want one naming f", off, n, l, err)
				case l >= extent && (err != nil || got != bitRead(pkt, off, n)):
					t.Fatalf("bits %d+%d, % x: f = %#x, %v; want %#x", off, n, pkt[:l], got, err, bitRead(pkt, off, n))
				}
			}
		}
	}
}

func TestBitExtractValidation(t *testing.T) {
	mk := func(b BitExtractDecl) Program {
		return Program{
			Fields:     []FieldDecl{{Name: "f", Width: 8}},
			ParserBits: []BitExtractDecl{b},
		}
	}
	if _, err := New(mk(BitExtractDecl{Field: "f", BitOffset: 0, Bits: 9}), BaseArch()); err == nil {
		t.Error("9 bits into 8-bit container accepted")
	}
	if _, err := New(mk(BitExtractDecl{Field: "f", BitOffset: -1, Bits: 4}), BaseArch()); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := New(mk(BitExtractDecl{Field: "zzz", BitOffset: 0, Bits: 4}), BaseArch()); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestActionData(t *testing.T) {
	// One action implementation (one VLIW slot) serving many entries with
	// per-entry parameters.
	prog := Program{
		Fields: []FieldDecl{{Name: "k", Width: 8}, {Name: "out", Width: 32}},
		Parser: []ExtractDecl{{Field: "k", Offset: 0, Bytes: 1}, {Field: "out", Offset: 1, Bytes: 4}},
		Tables: []TableDecl{{
			Name: "t", Stage: 0, Kind: MatchExact, Key: []string{"k"},
			Actions: []ActionDecl{{Name: "setp", Instrs: []Instr{
				{Op: OpAdd, Dst: "out", A: P(0), B: P(1)},
			}}},
			Entries: []EntryDecl{
				{Value: 1, Action: "setp", Params: []uint32{100, 11}},
				{Value: 2, Action: "setp", Params: []uint32{200, 22}},
			},
		}},
	}
	sw := mustSwitch(t, prog, BaseArch())
	run := func(k byte) uint32 {
		out, err := sw.Process(0, []byte{k, 0, 0, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		return binary.BigEndian.Uint32(out[0].Packet[1:])
	}
	if got := run(1); got != 111 {
		t.Errorf("entry 1 -> %d, want 111", got)
	}
	if got := run(2); got != 222 {
		t.Errorf("entry 2 -> %d, want 222", got)
	}

	// Action-data usage costs one slot, not one per entry.
	u := sw.Utilization()
	for _, r := range u.Rows() {
		if r.Resource == "VLIW instruction slots" && r.MaxStagePct > 100.0/32+0.01 {
			t.Errorf("action-data table consumed %f%% VLIW, want one slot", r.MaxStagePct)
		}
	}
}

func TestActionDataValidation(t *testing.T) {
	base := Program{
		Fields: []FieldDecl{{Name: "k", Width: 8}, {Name: "out", Width: 32}},
		Parser: []ExtractDecl{{Field: "k", Offset: 0, Bytes: 1}},
	}

	// Entry with too few params.
	p1 := base
	p1.Tables = []TableDecl{{
		Name: "t", Stage: 0, Kind: MatchExact, Key: []string{"k"},
		Actions: []ActionDecl{{Name: "a", Instrs: []Instr{{Op: OpMov, Dst: "out", A: P(1)}}}},
		Entries: []EntryDecl{{Value: 1, Action: "a", Params: []uint32{5}}},
	}}
	if _, err := New(p1, BaseArch()); err == nil || !strings.Contains(err.Error(), "params") {
		t.Errorf("missing params accepted: %v", err)
	}

	// Default action may not use params.
	p2 := base
	p2.Tables = []TableDecl{{
		Name: "t", Stage: 0, Kind: MatchExact, Key: []string{"k"},
		Actions: []ActionDecl{{Name: "a", Instrs: []Instr{{Op: OpMov, Dst: "out", A: P(0)}}}},
		Default: "a",
	}}
	if _, err := New(p2, BaseArch()); err == nil || !strings.Contains(err.Error(), "action data") {
		t.Errorf("default action with params accepted: %v", err)
	}

	// Param-driven shift distance is gated on VariableShift, like fields.
	p3 := base
	p3.Tables = []TableDecl{{
		Name: "t", Stage: 0, Kind: MatchExact, Key: []string{"k"},
		Actions: []ActionDecl{{Name: "a", Instrs: []Instr{{Op: OpShrL, Dst: "out", A: F("out"), B: P(0)}}}},
		Entries: []EntryDecl{{Value: 1, Action: "a", Params: []uint32{3}}},
	}}
	if _, err := New(p3, BaseArch()); err == nil || !strings.Contains(err.Error(), "VariableShift") {
		t.Errorf("param shift accepted on base arch: %v", err)
	}
	p3.Parser = append(p3.Parser, ExtractDecl{Field: "out", Offset: 1, Bytes: 4})
	if _, err := New(p3, ExtendedArch()); err != nil {
		t.Errorf("param shift rejected on extended arch: %v", err)
	}
}

func TestExtractBitsHelper(t *testing.T) {
	pkt := []byte{0b10110100, 0b01100000}
	cases := []struct {
		off, n int
		want   uint32
	}{
		{0, 1, 1},
		{0, 8, 0b10110100},
		{1, 3, 0b011},
		{4, 8, 0b01000110},
		{0, 12, 0b101101000110},
	}
	for _, c := range cases {
		if got := extractBits(pkt, c.off, c.n); got != c.want {
			t.Errorf("extractBits(%d,%d) = %#b, want %#b", c.off, c.n, got, c.want)
		}
	}

	// Every alignment and width against the one-bit-at-a-time reference.
	bitLoop := func(pkt []byte, bitOff, bits int) uint32 {
		var v uint32
		for pos := bitOff; pos < bitOff+bits; pos++ {
			v = v<<1 | uint32(pkt[pos/8]>>(7-pos%8)&1)
		}
		return v
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		pkt := make([]byte, 9) // 39 + 32 bits end inside byte 8
		rng.Read(pkt)
		for off := 0; off < 40; off++ {
			for n := 1; n <= 32; n++ {
				if got, want := extractBits(pkt, off, n), bitLoop(pkt, off, n); got != want {
					t.Fatalf("extractBits(% x, %d, %d) = %#x, want %#x", pkt, off, n, got, want)
				}
			}
		}
	}
}
