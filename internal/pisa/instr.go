package pisa

import "fmt"

// Opcode enumerates the operations of the stateless VLIW ALUs. These mirror
// the integer operations PISA match-action stages provide (§2.1): moves,
// add/subtract, bitwise logic, shifts and comparisons. There is deliberately
// no count-leading-zeros and no multiply — the paper's point is that FP must
// be built from exactly this set.
type Opcode int

const (
	// OpMov sets Dst = A.
	OpMov Opcode = iota
	// OpAdd sets Dst = A + B (wrapping at container width).
	OpAdd
	// OpSub sets Dst = A - B.
	OpSub
	// OpAnd, OpOr, OpXor are bitwise logic.
	OpAnd
	OpOr
	OpXor
	// OpNot sets Dst = ^A.
	OpNot
	// OpShl shifts A left by B bits. A field-typed B requires the
	// VariableShift feature (§4.2); otherwise B must be an immediate.
	OpShl
	// OpShrL is a logical right shift, same B rules as OpShl.
	OpShrL
	// OpShrA is an arithmetic right shift (sign bit of the container
	// width replicates), same B rules as OpShl.
	OpShrA
	// OpMin/OpMax are unsigned minimum/maximum.
	OpMin
	OpMax
	// OpMinS/OpMaxS are signed minimum/maximum.
	OpMinS
	OpMaxS
	// Comparison ops set Dst to 1 or 0.
	OpEq
	OpNe
	OpLtU // unsigned A < B
	OpLtS // signed A < B
	OpGeU // unsigned A >= B
	OpGeS // signed A >= B
	// OpCsel sets Dst = (Pred != 0) ? A : B. This is the single-write
	// conditional-select hardware provides in place of two predicated
	// writes to the same container.
	OpCsel
)

var opNames = map[Opcode]string{
	OpMov: "mov", OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpNot: "not", OpShl: "shl", OpShrL: "shrl", OpShrA: "shra",
	OpMin: "min", OpMax: "max", OpMinS: "mins", OpMaxS: "maxs",
	OpEq: "eq", OpNe: "ne", OpLtU: "ltu", OpLtS: "lts", OpGeU: "geu",
	OpGeS: "ges", OpCsel: "csel",
}

func (o Opcode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Operand is an instruction source: a PHV field (when Field is non-empty),
// an action-data parameter (when IsParam — the per-entry arguments standard
// P4 actions take), or a 32-bit immediate.
type Operand struct {
	Field    string
	Imm      uint32
	IsParam  bool
	ParamIdx int
}

// F makes a field operand.
func F(name string) Operand { return Operand{Field: name} }

// Imm makes an immediate operand.
func Imm(v uint32) Operand { return Operand{Imm: v} }

// P makes an action-data operand: the value comes from the matched entry's
// Params[idx]. Action data lets one action implementation serve many
// entries (one VLIW slot), but hardware shifters cannot take it as a
// distance — that is the §4.1 limitation the VariableShift extension fixes.
func P(idx int) Operand { return Operand{IsParam: true, ParamIdx: idx} }

// Instr is one VLIW instruction. All instructions within an action execute
// in parallel against the PHV as it stood at stage entry; the compiler
// rejects intra-action read-after-write dependencies to keep the sequential
// simulator faithful to that model.
type Instr struct {
	Op  Opcode
	Dst string
	A   Operand
	B   Operand
	// Pred optionally predicates the instruction (or selects for OpCsel):
	// the instruction takes effect only when (PHV[Pred] != 0) != PredNeg.
	Pred    string
	PredNeg bool
}

func (in Instr) String() string {
	s := fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.A.debug(), in.B.debug())
	if in.Pred != "" {
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		s += fmt.Sprintf(" if %s%s", neg, in.Pred)
	}
	return s
}

func (o Operand) debug() string {
	if o.Field != "" {
		return o.Field
	}
	if o.IsParam {
		return fmt.Sprintf("$%d", o.ParamIdx)
	}
	return fmt.Sprintf("#%d", int32(o.Imm))
}

// operand source kinds after compilation.
type srcKind uint8

const (
	srcImm srcKind = iota
	srcField
	srcParam
)

type cOperand struct {
	kind  srcKind
	field fieldID
	imm   uint32
	param int
}

// compiled instruction with resolved field IDs.
type cInstr struct {
	op       Opcode
	dst      fieldID
	dstWidth int
	a, b     cOperand
	pred     fieldID
	hasPred  bool
	predNeg  bool
}

// appendReads appends the PHV fields the instruction reads: its field
// operands and its predicate.
func (ci *cInstr) appendReads(r []fieldID) []fieldID {
	if ci.a.kind == srcField {
		r = append(r, ci.a.field)
	}
	if ci.b.kind == srcField {
		r = append(r, ci.b.field)
	}
	if ci.hasPred {
		r = append(r, ci.pred)
	}
	return r
}

func shl32(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v << by
}

func shrl32(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v >> by
}

func shra32(v int32, by uint32) int32 {
	if by >= 31 {
		by = 31
	}
	return v >> by
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
