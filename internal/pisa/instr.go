package pisa

import "fmt"

// Opcode enumerates the operations of the stateless VLIW ALUs: the integer
// operations of a PISA match-action stage (§2.1) that the FPISA program
// emits — moves, add/subtract, or, shifts, comparisons and a conditional
// select. There is deliberately no count-leading-zeros and no multiply —
// the paper's point is that FP must be built from such a set.
type Opcode int

const (
	// OpMov sets Dst = A.
	OpMov Opcode = iota
	// OpAdd sets Dst = A + B (wrapping at container width).
	OpAdd
	// OpSub sets Dst = A - B.
	OpSub
	// OpOr sets Dst = A | B.
	OpOr
	// OpShl shifts A left by B bits. A field-typed B requires the
	// VariableShift feature (§4.2); otherwise B must be an immediate.
	OpShl
	// OpShrL is a logical right shift, same B rules as OpShl.
	OpShrL
	// OpShrA is an arithmetic right shift (sign bit of the container
	// width replicates), same B rules as OpShl.
	OpShrA
	// Comparison ops set Dst to 1 or 0.
	OpEq
	OpNe
	OpLtS // signed A < B
	OpGeS // signed A >= B
	// OpCsel sets Dst = (PHV[Pred] != 0) ? A : B. This is the single-write
	// conditional-select hardware provides in place of two predicated
	// writes to the same container, and the only instruction that takes a
	// predicate.
	OpCsel
)

var opNames = map[Opcode]string{
	OpMov: "mov", OpAdd: "add", OpSub: "sub", OpOr: "or", OpShl: "shl",
	OpShrL: "shrl", OpShrA: "shra", OpEq: "eq", OpNe: "ne", OpLtS: "lts",
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
	// Pred is OpCsel's selector field, which it requires; no other
	// instruction takes one.
	Pred string
}

func (in Instr) String() string {
	s := fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.A.debug(), in.B.debug())
	if in.Pred != "" {
		s += " if " + in.Pred
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
	op   Opcode
	dst  fieldID
	a, b cOperand
	pred fieldID // OpCsel's selector
}

// appendReads appends the PHV fields the instruction reads: its field
// operands and, for OpCsel, its selector.
func (ci *cInstr) appendReads(r []fieldID) []fieldID {
	if ci.a.kind == srcField {
		r = append(r, ci.a.field)
	}
	if ci.b.kind == srcField {
		r = append(r, ci.b.field)
	}
	if ci.op == OpCsel {
		r = append(r, ci.pred)
	}
	return r
}

// value returns the operand's value: its field's, the matched entry's
// action data or the immediate.
func (o *cOperand) value(p *phv, params []uint32) uint32 {
	switch o.kind {
	case srcField:
		return p.get(o.field)
	case srcParam:
		return params[o.param]
	}
	return o.imm
}

// signed returns the operand's value sign-extended from its width: a
// field's container width, 32 bits for action data and immediates.
func (o *cOperand) signed(p *phv, params []uint32) int32 {
	if o.kind == srcField {
		return p.signed(o.field)
	}
	return int32(o.value(p, params))
}

// eval computes the instruction's result from the PHV and the matched
// entry's action data.
func (ci *cInstr) eval(p *phv, params []uint32) uint32 {
	a, b := ci.a.value(p, params), ci.b.value(p, params)
	switch ci.op {
	case OpMov:
		return a
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpOr:
		return a | b
	case OpShl:
		return shl32(a, b)
	case OpShrL:
		return shrl32(a, b)
	case OpShrA:
		return uint32(shra32(ci.a.signed(p, params), b))
	case OpEq:
		return boolBit(a == b)
	case OpNe:
		return boolBit(a != b)
	case OpLtS:
		return boolBit(ci.a.signed(p, params) < ci.b.signed(p, params))
	case OpGeS:
		return boolBit(ci.a.signed(p, params) >= ci.b.signed(p, params))
	}
	// OpCsel, the one opcode left: compile refuses any other.
	if p.get(ci.pred) != 0 {
		return a
	}
	return b
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
