package pisa

import "fmt"

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
	CmpNe CmpOp = iota // a != b
	CmpGt              // a > b
)

func (c CmpOp) apply(a, b int64) bool {
	if c == CmpGt {
		return a > b
	}
	return a != b
}

// SaluCond is the stateful ALU predicate. Its operands compare unsigned,
// zero-extended from their widths: the FPISA program compares biased
// exponents and 0/1 flags.
type SaluCond struct {
	Kind SaluCondKind
	// Cmp is the comparison operator for CondCmpOldIn / CondPhv.
	Cmp CmpOp
	// Field is the PHV field for CondPhv.
	Field string
	// Off is the constant addend: CondCmpOldIn evaluates in CMP (old+Off);
	// CondPhv evaluates PHV[Field] CMP Off.
	Off int64
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
	// UZero clears the register (used to reset aggregation slots on read).
	UZero
	// UMaxIn sets new = max(old, in).
	UMaxIn
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

// exec runs the op on its register in bank: reads the element the index
// field names, evaluates the predicate, applies the selected update, writes
// back and drives the op's PHV outputs.
func (op *cStatefulOp) exec(bank []*registerArray, p *phv) error {
	r := bank[op.regID]
	idx := p.get(op.index)
	if int(idx) >= len(r.vals) {
		return fmt.Errorf("pisa: register %q index %d out of range %d", r.decl.Name, idx, len(r.vals))
	}
	w := r.decl.Width
	old := r.vals[idx]
	var in uint32
	if op.hasIn {
		in = p.get(op.in) & widthMask(w)
	}

	pred := true
	switch op.cond.Kind {
	case CondCmpOldIn:
		pred = op.cond.Cmp.apply(int64(in), int64(old)+op.cond.Off)
	case CondPhv:
		pred = op.cond.Cmp.apply(int64(p.get(op.condField)), op.cond.Off)
	}
	upd := op.false_
	if pred {
		upd = op.true_
	}

	overflow := false
	newVal := old
	switch upd {
	case USetIn:
		newVal = in
	case UZero:
		newVal = 0
	case UAddIn:
		newVal, overflow = op.add(w, old, in)
	case UMaxIn:
		if op.greater(w, in, old) {
			newVal = in
		}
	case URsawAddIn:
		var dist uint32
		if op.hasShift {
			dist = p.get(op.shift)
		}
		newVal, overflow = op.add(w, op.shiftRight(w, old, dist), in)
	}
	r.vals[idx] = newVal

	switch op.output {
	case OutOld:
		p.set(op.outField, old)
	case OutNew:
		p.set(op.outField, newVal)
	}
	if op.hasOvField {
		p.set(op.ovField, boolBit(overflow))
	}
	return nil
}

// add adds within the register width w and reports signed overflow when
// the op is signed (unsigned ops never report overflow: wrapping is the
// defined behaviour for counters).
func (op *cStatefulOp) add(w int, a, b uint32) (uint32, bool) {
	signBit := uint32(1) << (w - 1)
	sum := (a + b) & widthMask(w)
	// Signed overflow: operands share a sign that differs from the result's.
	return sum, op.signed && (a^b)&signBit == 0 && (a^sum)&signBit != 0
}

// greater compares two register-width values, signed when the op is.
func (op *cStatefulOp) greater(w int, a, b uint32) bool {
	if op.signed {
		return signExtend(a, w) > signExtend(b, w)
	}
	return a > b
}

// shiftRight shifts a register-width value right by dist: arithmetically,
// the distance clamped to w-1, when the op is signed, else logically.
func (op *cStatefulOp) shiftRight(w int, v, dist uint32) uint32 {
	if op.signed {
		return uint32(signExtend(v, w)>>min(dist, uint32(w-1))) & widthMask(w)
	}
	if dist >= uint32(w) {
		return 0
	}
	return v >> dist
}
