package pisa

import (
	"fmt"
	"slices"
)

// A plan is one gress lowered to a flat step sequence: what the executor
// runs per packet. compile builds it once, after the dependency analysis;
// it is part of the immutable compiled program and shared by every replica.
//
// The sequence follows the stages in order and, inside a stage, the tables
// in placement order. An always-table dissolves into its action's steps. A
// keyed table is one lookup step followed by each action's steps; the lookup
// jumps to the matched (or default) action, whose last step skips past the
// table. Every instruction's field ids, width mask, operand selectors and
// sign-extension shifts and every stateful op's register mask and sign bit
// are resolved here, not per packet.
//
// Stage semantics — every table of a stage sees the stage-entry PHV — hold
// by construction. A step's write goes straight to the PHV unless a later
// step of the same stage reads the field, and checkDependencies leaves one
// such reader possible: it refuses a table that reads what a table placed
// before it in its stage writes (tables placed after it have not run yet),
// and compileAction refuses an instruction that reads another's
// destination, so only an action's own stateful op, which runs after its
// instructions, can read what they write. Those writes alone are held back
// on the switch's write set and committed once the op has run.
type plan struct {
	egress bool
	steps  []step
	tables []*cTable  // keyed tables, indexed by a lookup step's dst
	salus  []planSalu // stateful ops, indexed by a salu step's dst
	// always lists the dissolved always-tables in execution order. They hit
	// on every packet, so the executor counts completed runs of the plan
	// (Switch.runs) instead of bumping each table; only a run a stateful op
	// fails counts the tables it reached one by one.
	always []int // table idx
}

// stepKind says what a step does. Values up to OpCsel are VLIW
// instructions — the kind is the Opcode — and the rest are control steps.
type stepKind uint8

const (
	stepSalu   stepKind = stepKind(OpCsel) + 1 + iota // run salus[dst]
	stepLookup                                        // look tables[dst] up (a: a one-field key) and continue at the action it names
)

// step is one plan step.
type step struct {
	kind     stepKind
	hasPred  bool
	predNeg  bool
	deferred bool // the action's stateful op reads dst: hold the write back until it has run
	// skip is how many steps to pass over after this one: on an action's
	// last step, the table's remaining actions.
	skip uint32
	dst  fieldID
	mask uint32 // dst's width mask
	a, b operand
	pred fieldID
}

// operand is an instruction source resolved so that reading it does not
// branch on its kind: the value is vals[id]&and | or, where a field has
// and = ^0, or = 0 and an immediate and = 0, or = the value. An action-data
// operand reads params[id] instead (param). sx is 32 minus the field's
// container width, the shift pair that sign-extends it.
type operand struct {
	id      uint32
	and, or uint32
	sx      uint8
	param   bool
}

// planSalu is a stateful op with everything derived from the register and
// field declarations precomputed.
type planSalu struct {
	*cStatefulOp
	mask    uint32 // register width mask
	signBit uint32
	width   uint32
	sx      uint8  // 32 - register width: sign-extends a stored value
	condSx  uint8  // 32 - width of a CondPhv field
	outMask uint32 // the output field's width mask
	// commit says the action's instructions held writes back for this op.
	commit bool
	// always is how many always-tables have run once this op's table has.
	always int
}

// lower builds the plan of one gress from its placed tables.
func (c *compiled) lower(egress bool, stages [][]*cTable) plan {
	pl := plan{egress: egress}
	n := 0
	for _, tables := range stages {
		for _, t := range tables {
			n++
			for _, a := range t.actions {
				n += len(a.instrs) + 1
			}
		}
	}
	pl.steps = make([]step, 0, n)

	for _, tables := range stages {
		for _, t := range tables {
			if t.decl.Kind == MatchAlways {
				pl.always = append(pl.always, t.idx)
				c.lowerAction(&pl, t.default_)
				continue
			}
			lookup := step{kind: stepLookup, dst: fieldID(len(pl.tables))}
			if len(t.key) == 1 { // the key is the field: read it as operand a
				lookup.a = operand{id: uint32(t.key[0].id), and: ^uint32(0)}
			}
			pl.steps = append(pl.steps, lookup)
			pl.tables = append(pl.tables, t)
			for i := range t.decl.Actions {
				a := t.actions[t.decl.Actions[i].Name]
				a.start = len(pl.steps)
				c.lowerAction(&pl, a)
				a.end = len(pl.steps)
			}
			t.end = len(pl.steps)
			for _, a := range t.actions {
				if a.start == a.end {
					a.start = t.end // nothing to run
				} else {
					pl.steps[a.end-1].skip = uint32(t.end - a.end)
				}
			}
		}
	}
	return pl
}

// lowerAction appends a's instructions and stateful op to the plan.
func (c *compiled) lowerAction(pl *plan, a *cAction) {
	var saluReads []fieldID
	if a.stateful != nil {
		saluReads = a.stateful.reads()
	}
	held := false
	resolve := func(o cOperand) operand {
		switch o.kind {
		case srcField:
			return operand{id: uint32(o.field), and: ^uint32(0), sx: uint8(32 - c.ft.width(o.field))}
		case srcParam:
			return operand{id: uint32(o.param), param: true}
		}
		return operand{or: o.imm}
	}
	for _, ci := range a.instrs {
		st := step{
			kind: stepKind(ci.op), dst: ci.dst, mask: c.ft.masks[ci.dst],
			a: resolve(ci.a), b: resolve(ci.b),
			hasPred: ci.hasPred, predNeg: ci.predNeg, pred: ci.pred,
		}
		st.deferred = slices.Contains(saluReads, ci.dst)
		held = held || st.deferred
		pl.steps = append(pl.steps, st)
	}
	if op := a.stateful; op != nil {
		w := c.regDecls[op.regID].Width
		ps := planSalu{
			cStatefulOp: op,
			mask:        widthMask(w), signBit: 1 << (w - 1), width: uint32(w), sx: uint8(32 - w),
			always: len(pl.always), commit: held,
		}
		if op.cond.Kind == CondPhv {
			ps.condSx = uint8(32 - c.ft.width(op.condField))
		}
		if op.output != OutNone {
			ps.outMask = c.ft.masks[op.outField]
		}
		pl.steps = append(pl.steps, step{kind: stepSalu, dst: fieldID(len(pl.salus))})
		pl.salus = append(pl.salus, ps)
	}
}

// runPlan executes one gress on phv.
func (s *Switch) runPlan(phv *Phv, pl *plan) error {
	vals, steps := phv.vals, pl.steps
	var params []uint32 // the matched entry's action data
	for pc := 0; pc < len(steps); {
		st := &steps[pc]
		pc += 1 + int(st.skip)

		// Control steps carry no predicate and, but for a lookup's one-field
		// key, zero immediates as operands: what precedes the switch is idle
		// for them.
		predVal := true
		if st.hasPred {
			predVal = (vals[st.pred] != 0) != st.predNeg
			if !predVal && st.kind != stepKind(OpCsel) {
				continue
			}
		}
		a := vals[st.a.id]&st.a.and | st.a.or
		b := vals[st.b.id]&st.b.and | st.b.or
		if st.a.param {
			a = params[st.a.id]
		}
		if st.b.param {
			b = params[st.b.id]
		}
		var v uint32
		switch st.kind {
		case stepLookup:
			t := pl.tables[st.dst]
			key := uint64(a)
			if len(t.key) != 1 {
				key = t.buildKey(phv)
			}
			h, hit := t.lookup(key)
			if hit {
				s.tstats[t.idx].hits++
			} else {
				s.tstats[t.idx].misses++
			}
			if h.action == nil {
				pc = t.end
				continue
			}
			params, pc = h.params, h.action.start
			continue
		case stepSalu:
			op := &pl.salus[st.dst]
			if err := s.salu(op, vals); err != nil {
				s.writes = s.writes[:0] // the held-back writes die with the packet
				for _, idx := range pl.always[:op.always] {
					s.tstats[idx].hits++
				}
				return err
			}
			if op.commit {
				s.writes.commit(phv)
			}
			continue

		case stepKind(OpMov):
			v = a
		case stepKind(OpAdd):
			v = a + b
		case stepKind(OpSub):
			v = a - b
		case stepKind(OpAnd):
			v = a & b
		case stepKind(OpOr):
			v = a | b
		case stepKind(OpXor):
			v = a ^ b
		case stepKind(OpNot):
			v = ^a
		case stepKind(OpShl):
			v = shl32(a, b)
		case stepKind(OpShrL):
			v = shrl32(a, b)
		case stepKind(OpShrA):
			v = uint32(shra32(signExtend(a, st.a.sx), b))
		case stepKind(OpMin):
			v = min(a, b)
		case stepKind(OpMax):
			v = max(a, b)
		case stepKind(OpMinS):
			v = uint32(min(signExtend(a, st.a.sx), signExtend(b, st.b.sx)))
		case stepKind(OpMaxS):
			v = uint32(max(signExtend(a, st.a.sx), signExtend(b, st.b.sx)))
		case stepKind(OpEq):
			v = boolBit(a == b)
		case stepKind(OpNe):
			v = boolBit(a != b)
		case stepKind(OpLtU):
			v = boolBit(a < b)
		case stepKind(OpLtS):
			v = boolBit(signExtend(a, st.a.sx) < signExtend(b, st.b.sx))
		case stepKind(OpGeU):
			v = boolBit(a >= b)
		case stepKind(OpGeS):
			v = boolBit(signExtend(a, st.a.sx) >= signExtend(b, st.b.sx))
		case stepKind(OpCsel):
			v = b
			if predVal {
				v = a
			}
		}
		if st.deferred {
			s.writes.put(st.dst, v)
		} else {
			vals[st.dst] = v & st.mask
		}
	}
	s.runs[boolBit(pl.egress)]++
	return nil
}

// signExtend widens a value held in the low 32-sx bits to int32.
func signExtend(v uint32, sx uint8) int32 { return int32(v<<sx) >> sx }

// salu runs one stateful op on this switch's register bank: reads the
// register, evaluates the predicate, applies the selected update, writes
// back and drives the op's PHV outputs.
func (s *Switch) salu(op *planSalu, vals []uint32) error {
	r := s.regs[op.regID]
	idx := vals[op.index]
	if int(idx) >= len(r.vals) {
		return fmt.Errorf("pisa: register %q index %d out of range %d", r.decl.Name, idx, len(r.vals))
	}
	old := r.vals[idx]
	var in uint32
	if op.hasIn {
		in = vals[op.in] & op.mask
	}

	pred := true
	switch op.cond.Kind {
	case CondCmpOldIn:
		a, b := int64(in), int64(old)
		if op.cond.Signed {
			a, b = int64(signExtend(in, op.sx)), int64(signExtend(old, op.sx))
		}
		pred = op.cond.Cmp.apply(a, b+op.cond.Off)
	case CondPhv:
		v := int64(vals[op.condField])
		if op.cond.Signed {
			v = int64(signExtend(vals[op.condField], op.condSx))
		}
		pred = op.cond.Cmp.apply(v, op.cond.Off)
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
		newVal, overflow = op.add(old, in)
	case USubIn:
		newVal, overflow = op.add(old, -in&op.mask)
	case UMaxIn:
		if op.greater(in, old) {
			newVal = in
		}
	case UMinIn:
		if op.greater(old, in) {
			newVal = in
		}
	case URsawAddIn:
		var dist uint32
		if op.hasShift {
			dist = vals[op.shift]
		}
		newVal, overflow = op.add(op.shiftRight(old, dist), in)
	}
	newVal &= op.mask
	r.vals[idx] = newVal

	switch op.output {
	case OutOld:
		vals[op.outField] = old & op.outMask
	case OutNew:
		vals[op.outField] = newVal & op.outMask
	case OutPred:
		vals[op.outField] = boolBit(pred)
	}
	if op.hasOvField {
		vals[op.ovField] = boolBit(overflow)
	}
	return nil
}

// add adds within the register width and reports signed overflow when the
// op is signed (unsigned ops never report overflow: wrapping is the defined
// behaviour for counters).
func (op *planSalu) add(a, b uint32) (uint32, bool) {
	sum := (a + b) & op.mask
	// Signed overflow: operands share a sign that differs from the result's.
	return sum, op.signed && (a^b)&op.signBit == 0 && (a^sum)&op.signBit != 0
}

func (op *planSalu) greater(a, b uint32) bool {
	if op.signed {
		return signExtend(a, op.sx) > signExtend(b, op.sx)
	}
	return a > b
}

func (op *planSalu) shiftRight(v, dist uint32) uint32 {
	if op.signed {
		return uint32(signExtend(v, op.sx)>>min(dist, op.width-1)) & op.mask
	}
	if dist >= op.width {
		return 0
	}
	return v >> dist
}
