package pisa

// RegisterDecl declares a stateful register array. Exactly one table may
// access a register, and the array lives in that table's stage and gress —
// one stateful access per packet, the PISA constraint that forces FPISA's
// design (§2.3 challenge 1). A register no table accesses is refused.
type RegisterDecl struct {
	Name string
	// Width is the element width in bits: 8, 16 or 32.
	Width int
	// Size is the number of elements.
	Size int
}

// SaluCondKind selects the stateful ALU's predicate source.
type SaluCondKind int

const (
	// CondAlways makes the True update unconditional.
	CondAlways SaluCondKind = iota
	// CondCmpOldIn compares the stored value against the input operand:
	// predicate = in CMP (old + Off).
	CondCmpOldIn
	// CondPhv tests a PHV field: predicate = PHV[Field] CMP Off.
	CondPhv
)

// CmpOp is a comparison operator for stateful ALU conditions.
type CmpOp int

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (c CmpOp) apply(a, b int64) bool {
	switch c {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	}
	return false
}

// SaluCond is the stateful ALU predicate.
type SaluCond struct {
	Kind SaluCondKind
	// Cmp is the comparison operator for CondCmpOldIn / CondPhv.
	Cmp CmpOp
	// Field is the PHV field for CondPhv.
	Field string
	// Off is the constant addend: CondCmpOldIn evaluates in CMP (old+Off);
	// CondPhv evaluates PHV[Field] CMP Off.
	Off int64
	// Signed selects signed interpretation of old/in for the comparison.
	Signed bool
}

// SaluUpdate selects how the stored value is recomputed.
type SaluUpdate int

const (
	// UKeepOld leaves the register unchanged.
	UKeepOld SaluUpdate = iota
	// USetIn overwrites the register with the input operand.
	USetIn
	// UAddIn accumulates: new = old + in.
	UAddIn
	// USubIn sets new = old - in.
	USubIn
	// UZero clears the register (used to reset aggregation slots on read).
	UZero
	// UMaxIn sets new = max(old, in).
	UMaxIn
	// UMinIn sets new = min(old, in).
	UMinIn
	// URsawAddIn is the paper's read-shift-add-write extension (§4.2):
	// new = (old >> PHV[ShiftField]) + in, with an arithmetic shift when
	// Signed. Compiling it requires Features.RSAW.
	URsawAddIn
)

// SaluOutput selects what the stateful ALU drives onto its output bus.
type SaluOutput int

const (
	// OutNone produces no output.
	OutNone SaluOutput = iota
	// OutOld outputs the pre-update value.
	OutOld
	// OutNew outputs the post-update value.
	OutNew
	// OutPred outputs the predicate as 0/1.
	OutPred
)

// StatefulOp is one register action: a guarded read-modify-write against a
// register array, the abstraction Tofino exposes as a RegisterAction. A
// table action may contain at most one stateful op, and all stateful ops on
// a given register belong to one table, whose stage holds the register. An
// op may not read a field an instruction of its own action writes: it runs
// against the stage-entry PHV like the instructions do.
type StatefulOp struct {
	// Register names the target array.
	Register string
	// IndexField is the PHV field holding the element index.
	IndexField string
	// InField is the PHV input operand ("" means input 0).
	InField string
	// ShiftField supplies the RSAW shift distance.
	ShiftField string
	// Cond guards the update selection.
	Cond SaluCond
	// True/False select the update applied when the predicate is
	// true/false respectively.
	True, False SaluUpdate
	// Signed selects signed (two's complement) arithmetic for updates.
	Signed bool
	// Output/OutputField drive a PHV field from the op.
	Output      SaluOutput
	OutputField string
	// OverflowField, when set, receives 1 if the signed update overflowed
	// the register width (sticky overflow signalling, §3.3), else 0.
	OverflowField string
}

// registerArray is runtime storage for one RegisterDecl.
type registerArray struct {
	decl RegisterDecl
	vals []uint32
}

// compiled stateful op with resolved IDs. The register is referenced by
// its index into the switch's register bank (not a pointer) so the same
// compiled action can serve many pipeline replicas, each with its own
// bank — see Switch.Replicate.
type cStatefulOp struct {
	regID      int
	index      fieldID
	in         fieldID
	hasIn      bool
	shift      fieldID
	hasShift   bool
	cond       SaluCond
	condField  fieldID
	true_      SaluUpdate
	false_     SaluUpdate
	signed     bool
	output     SaluOutput
	outField   fieldID
	ovField    fieldID
	hasOvField bool
}

// appendReads appends the PHV fields the op reads: its register index,
// input, shift distance and condition field.
func (op *cStatefulOp) appendReads(r []fieldID) []fieldID {
	r = append(r, op.index)
	if op.hasIn {
		r = append(r, op.in)
	}
	if op.hasShift {
		r = append(r, op.shift)
	}
	if op.cond.Kind == CondPhv {
		r = append(r, op.condField)
	}
	return r
}
