package pisa

import (
	"fmt"
	"slices"
)

// A plan is one gress lowered to a flat step sequence: what the executor
// runs per packet. compile builds every plan once, after the dependency
// analysis; they are part of the immutable compiled program and shared by
// every replica.
//
// A plan is specialised to the packets that run it, the way the Packet
// Transactions compiler transforms a packet program once instead of
// interpreting it per packet (lowerPasses):
//
//   - The dispatch field — for the FPISA program, the op octet — picks a
//     packet's pass, one per value some entry names plus one for every other
//     value. A table keyed on that field alone is no lookup in a pass: it
//     dissolves into the action the pass's value selects, the entry's action
//     data bound as immediates.
//   - A pass either emits the packet or absorbs it. An emitting plan keeps
//     the steps whose results reach the deparser or, at the end of ingress,
//     _egress_port; an absorbing plan keeps only the steps that feed a
//     stateful op, since the registers are all an absorbed packet leaves
//     behind. Every stateful op is kept either way, so registers, runtime
//     errors and counters mean the same in both.
//
// The sequence follows the stages in order and, inside a stage, the tables
// in declaration order. An always-table dissolves into its action's steps. A
// keyed table is one lookup step followed by each action's steps; the lookup
// jumps to the matched (or default) action, whose last step skips past the
// table. A keyed table none of whose actions keeps a step is left out,
// lookup and all. A stage that keeps no lookup runs its steps grouped by
// kind — a stable sort, which leaves each stateful op after every
// instruction — so the executor's switch takes the same case step after
// step. Every instruction's operand slots, width mask and sign-extension
// shifts and every stateful op's register mask and sign bit are resolved
// here, not per packet.
//
// Stage semantics — every table of a stage sees the stage-entry PHV — hold
// by construction, so every step writes the PHV directly and a stage's
// steps may run in any order that keeps each stateful op after its
// action's instructions: no step of a stage reads a field another step of
// it writes. checkDependencies refuses a table that reads a field another
// table of its stage writes, whichever is declared first; compileAction
// refuses an instruction that reads another's destination, and a stateful
// op — which runs after its action's instructions — that reads one of
// theirs.
type plan struct {
	steps  []step
	tables []planTable // keyed tables, indexed by a lookup step's dst
	salus  []planSalu  // stateful ops, indexed by a salu step's dst
}

// planTable is a keyed table as one plan lays it out. Its steps end at end,
// where a miss without a default action continues; action a's start at
// start[a.idx], or at end when the plan keeps none of them. row is the PHV
// slot of the table's matched row (a position in rows, noRow for a miss):
// the lookup stores what it matches there. A table with reuse set matches
// nothing: an earlier lookup of the plan keyed on the same field, which no
// step since has written, scanned the same TCAM rows and left its row in
// that slot, and this table runs its own action for that row — a module's
// renorm_m after its renorm_e.
type planTable struct {
	*cTable
	end   int
	start []int
	row   uint32
	reuse bool
}

// pass is what one packet runs: a plan per gress.
type pass struct{ ingress, egress *plan }

// stepKind says what a step does. Values up to OpCsel are VLIW
// instructions — the kind is the Opcode — and the rest are control steps.
type stepKind uint8

const (
	stepSalu   stepKind = stepKind(OpCsel) + 1 + iota // run salus[dst]
	stepLookup                                        // look tables[dst] up (a: a one-field key) and continue at the action it names
)

// step is one plan step.
type step struct {
	kind stepKind
	// skip is how many steps to pass over after this one: on an action's
	// last step, the table's remaining actions.
	skip uint32
	dst  fieldID
	mask uint32 // dst's width mask
	a, b operand
	pred fieldID // a csel's selector
}

// operand is an instruction source: the PHV slot holding its value (a
// field, a parameter's action-data slot, or an immediate's constant slot;
// an unused operand reads the constant 0) and sx, 32 minus a field's
// container width and 0 for the others, the shift pair that sign-extends
// it. Reading an operand does not branch on its kind.
type operand struct {
	id uint32
	sx uint8
}

// planSalu is a stateful op with everything derived from the register and
// field declarations precomputed.
type planSalu struct {
	*cStatefulOp
	mask    uint32 // register width mask
	signBit uint32
	width   uint32
	sx      uint8  // 32 - register width: sign-extends a stored value
	outMask uint32 // the output field's width mask
}

// noDispatch is compiled.dispatch of a program without a dispatch field.
const noDispatch fieldID = -1

// passIndex returns the pass of a parsed packet.
func (c *compiled) passIndex(phv *Phv) uint8 {
	if c.dispatch == noDispatch {
		return 0
	}
	return c.passOf[uint8(phv.vals[c.dispatch])]
}

// dispatchField picks the field whose parsed value selects a packet's pass.
// A candidate is filled by the parser, at most 8 bits wide and written by no
// instruction or stateful output, so every stage sees the parsed value; the
// one that alone keys the most exact tables wins, the lower id on a tie.
// noDispatch when no exact table is keyed on a candidate alone.
func (c *compiled) dispatchField() fieldID {
	parsed := make([]bool, len(c.ft.decls))
	for _, e := range c.parser {
		parsed[e.field] = true
	}
	for _, e := range c.parserBits {
		parsed[e.field] = true
	}
	for f, w := range c.writtenFields() {
		parsed[f] = parsed[f] && !w
	}
	keys := make([]int, len(c.ft.decls))
	best := noDispatch
	for _, t := range c.declared {
		if t.decl.Kind != MatchExact || len(t.key) != 1 {
			continue
		}
		f := t.key[0].id
		if !parsed[f] || c.ft.width(f) > 8 {
			continue
		}
		keys[f]++
		if best == noDispatch || keys[f] > keys[best] || keys[f] == keys[best] && f < best {
			best = f
		}
	}
	return best
}

// keyedOnDispatch reports whether t is an exact table keyed on the dispatch
// field alone: in a pass it dissolves into one action.
func (c *compiled) keyedOnDispatch(t *cTable) bool {
	return t.decl.Kind == MatchExact && len(t.key) == 1 && t.key[0].id == c.dispatch
}

// dispatched reports whether t is keyed on the dispatch field alone and, if
// so, what it runs for packets of dispatch value v (every value no entry
// names when v < 0): a nil action is a no-op.
func (c *compiled) dispatched(t *cTable, v int) (cHit, bool) {
	if !c.keyedOnDispatch(t) {
		return cHit{}, false
	}
	if v < 0 {
		return cHit{action: t.default_}, true
	}
	return t.lookup(uint64(v)), true
}

// rowClasses returns, per ternary or LPM table, the first declared table
// keyed on the same one field whose entries declare the same match rows, in
// the same order, as its own (sameRows): a key matches the entry at the
// same index in both. A table with no such table before it, exact and
// multi-field ones among them, is its own class.
func (c *compiled) rowClasses() []int {
	class := make([]int, len(c.declared))
	for i, t := range c.declared {
		class[i] = i
		if t.ternary == nil && t.lpm == nil || len(t.key) != 1 {
			continue
		}
		for _, u := range c.declared[:i] {
			if sameRows(t, u) {
				class[i] = u.idx
				break
			}
		}
	}
	return class
}

// sameRows reports whether u is a table of t's match kind keyed on the same
// one field that declares the same match rows in the same order: value,
// mask, prefix length and priority. Both TCAMs then hold the same rows in
// the same order, each naming its entry's index (compileTable).
func sameRows(t, u *cTable) bool {
	if u.decl.Kind != t.decl.Kind || len(u.key) != 1 || u.key[0].id != t.key[0].id || len(u.decl.Entries) != len(t.decl.Entries) {
		return false
	}
	for i := range t.decl.Entries {
		e, f := &t.decl.Entries[i], &u.decl.Entries[i]
		if e.Value != f.Value || e.Mask != f.Mask || e.PrefixLen != f.PrefixLen || e.Priority != f.Priority {
			return false
		}
	}
	return true
}

// lowering is the scratch lowerPasses reuses for every plan.
type lowering struct {
	live      []bool            // per pass, the fields read downstream (fieldID-indexed)
	keep      []bool            // per instruction (cAction.instr0): the plan runs it
	keepTable []bool            // per keyed table (cTable.idx): the plan looks it up
	constOf   map[uint32]uint32 // immediate → its PHV slot
	zero      operand           // the slot of the constant 0: what an unused operand reads
	class     []int             // per declared table: rowClasses
	// lastOf is, per class, 1 + the index in tables of the plan's latest
	// lookup of that class so far, 0 for none; lookupAt is each table's
	// lookup step position.
	lastOf   []int
	lookupAt []int
	grouped  []step // groupByKind's scratch
	steps    []step
	tables   []planTable
	salus    []planSalu
}

// lowerPasses lays out the PHV slots past the fields, sets the dispatch
// field and lowers both gresses to the emitting and the absorbing pass of
// every dispatch value. Liveness runs backward from the end of egress: the
// emitting passes start from the fields the deparser writes back and add
// _egress_port between the gresses; the absorbing ones start from nothing,
// so only what a stateful op reads becomes live.
func (c *compiled) lowerPasses() {
	nParams := 0
	for _, t := range c.declared {
		for _, a := range t.actions {
			nParams = max(nParams, a.nParams)
		}
	}
	c.paramBase = len(c.ft.decls)
	c.rowBase = c.paramBase + nParams
	c.constBase = c.rowBase + len(c.declared)

	c.dispatch = c.dispatchField()
	values := []int{-1} // each pass's dispatch value; -1 is every value no entry names
	if c.dispatch != noDispatch {
		var named [256]bool
		for _, t := range c.declared {
			if c.keyedOnDispatch(t) {
				for _, k := range t.exactKeys {
					if k < uint64(len(named)) {
						named[k] = true
					}
				}
			}
		}
		values = values[:0]
		for v, ok := range named {
			if ok {
				c.passOf[v] = uint8(len(values))
				values = append(values, v)
			}
		}
		if len(values) < len(named) {
			for v, ok := range named {
				if !ok {
					c.passOf[v] = uint8(len(values))
				}
			}
			values = append(values, -1)
		}
	}

	nf := len(c.ft.decls)
	lw := &lowering{
		live:      make([]bool, len(values)*nf),
		keep:      make([]bool, c.nInstrs),
		keepTable: make([]bool, len(c.declared)),
		constOf:   make(map[uint32]uint32),
		class:     c.rowClasses(),
		lastOf:    make([]int, len(c.declared)),
	}
	lw.zero = operand{id: c.constSlot(lw, 0)}
	for _, emitting := range []bool{true, false} {
		clear(lw.live)
		if emitting {
			for i := range values {
				for _, e := range c.deparser {
					lw.live[i*nf+int(e.field)] = true
				}
			}
		}
		egress := c.lowerGress(c.egress, values, lw)
		if emitting {
			for i := range values {
				lw.live[i*nf+int(fidEgressPort)] = true
			}
		}
		ingress := c.lowerGress(c.ingress, values, lw)
		passes := make([]pass, len(values))
		for i := range passes {
			passes[i] = pass{&ingress[min(i, len(ingress)-1)], &egress[min(i, len(egress)-1)]}
		}
		if emitting {
			c.emit = passes
		} else {
			c.absorb = passes
		}
	}
}

// constSlot returns the PHV slot that holds the immediate v, adding one to
// consts if no slot holds it yet.
func (c *compiled) constSlot(lw *lowering, v uint32) uint32 {
	id, ok := lw.constOf[v]
	if !ok {
		id = uint32(c.constBase + len(c.consts))
		lw.constOf[v] = id
		c.consts = append(c.consts, v)
	}
	return id
}

// lowerGress lowers one gress for every pass: a plan each, or one they all
// share when no table of the gress is keyed on the dispatch field alone.
// lw.live holds, pass by pass, the fields read after the gress and is left
// holding those read from its start.
func (c *compiled) lowerGress(stages [][]*cTable, values []int, lw *lowering) []plan {
	nf := len(c.ft.decls)
	shared := true
	for _, tables := range stages {
		for _, t := range tables {
			shared = shared && !c.keyedOnDispatch(t)
		}
	}
	if shared {
		// The one plan keeps what any pass needs.
		all := lw.live[:nf]
		for i := 1; i < len(values); i++ {
			for f, l := range lw.live[i*nf : (i+1)*nf] {
				all[f] = all[f] || l
			}
		}
		pl := c.lowerPlan(stages, -1, all, lw)
		for i := 1; i < len(values); i++ {
			copy(lw.live[i*nf:(i+1)*nf], all)
		}
		return []plan{pl}
	}
	plans := make([]plan, len(values))
	for i, v := range values {
		plans[i] = c.lowerPlan(stages, v, lw.live[i*nf:(i+1)*nf], lw)
	}
	return plans
}

// lowerPlan lowers one gress for packets of dispatch value v, keeping the
// steps whose results reach live, and adds to live the fields the kept steps
// read.
//
// Liveness walks the staged tables backward. A stateful op is always kept
// and its reads become live; an instruction is kept only if its destination
// is live, and then its operands and csel selector become live; a keyed
// table is kept only if one of its actions keeps a step, and then its key
// becomes live. The live set only grows: a write does not end its field's
// liveness upstream. Ending it is sound only at a write every packet of the
// pass makes — an always-table's or a dissolved table's action, not a keyed
// table's, whose lookup may pick another action — and there it would drop
// only steps whose values are overwritten before anything reads them. The
// FPISA program has no such step, so ending liveness there lowers the same
// plans, and the monotone set needs no such distinction. Walking a stage one
// step at a time is sound in any order because no step of a stage reads a
// value another step of that stage writes: a write made live by a read in
// its own stage is at worst kept for nothing.
func (c *compiled) lowerPlan(stages [][]*cTable, v int, live []bool, lw *lowering) plan {
	for s := len(stages) - 1; s >= 0; s-- {
		for ti := len(stages[s]) - 1; ti >= 0; ti-- {
			t := stages[s][ti]
			if h, ok := c.dispatched(t, v); ok {
				if h.action != nil {
					lw.liveAction(h.action, live)
				}
				continue
			}
			if t.decl.Kind == MatchAlways {
				lw.liveAction(t.default_, live)
				continue
			}
			kept := false
			for _, a := range t.actions {
				kept = lw.liveAction(a, live) || kept
			}
			lw.keepTable[t.idx] = kept
			if kept {
				for _, k := range t.key {
					live[k.id] = true
				}
			}
		}
	}

	lw.steps, lw.tables, lw.salus, lw.lookupAt = lw.steps[:0], lw.tables[:0], lw.salus[:0], lw.lookupAt[:0]
	clear(lw.lastOf)
	for _, tables := range stages {
		first, lookups := len(lw.steps), len(lw.tables)
		for _, t := range tables {
			if h, ok := c.dispatched(t, v); ok {
				if h.action != nil {
					c.lowerAction(lw, h.action, h.params)
				}
				continue
			}
			if t.decl.Kind == MatchAlways {
				c.lowerAction(lw, t.default_, nil)
				continue
			}
			if !lw.keepTable[t.idx] {
				continue
			}
			lookup := step{kind: stepLookup, dst: fieldID(len(lw.tables)), a: lw.zero, b: lw.zero}
			if len(t.key) == 1 { // the key is the field: read it as operand a
				lookup.a = operand{id: uint32(t.key[0].id)}
			}
			pt := planTable{cTable: t, start: make([]int, len(t.actions)), row: uint32(c.rowBase + t.idx)}
			class := lw.class[t.idx]
			if j := lw.lastOf[class] - 1; j >= 0 && !lw.writes(t.key[0].id, lw.lookupAt[j]+1) {
				pt.row, pt.reuse = lw.tables[j].row, true
			}
			lw.lastOf[class] = len(lw.tables) + 1
			lw.lookupAt = append(lw.lookupAt, len(lw.steps))
			lw.steps = append(lw.steps, lookup)
			for i, a := range t.actions {
				pt.start[i] = len(lw.steps)
				c.lowerAction(lw, a, nil)
			}
			pt.end = len(lw.steps)
			for i := range pt.start {
				end := pt.end // of action i's steps
				if i+1 < len(pt.start) {
					end = pt.start[i+1]
				}
				if pt.start[i] == end {
					pt.start[i] = pt.end // nothing to run
				} else {
					lw.steps[end-1].skip = uint32(pt.end - end)
				}
			}
			lw.tables = append(lw.tables, pt)
		}
		if len(lw.tables) == lookups {
			lw.groupByKind(lw.steps[first:])
		}
	}
	return plan{steps: slices.Clone(lw.steps), tables: slices.Clone(lw.tables), salus: slices.Clone(lw.salus)}
}

// groupByKind sorts steps stably by kind: a counting sort over the few
// kinds, through lw.grouped, unless they are in order already.
func (lw *lowering) groupByKind(steps []step) {
	var at [stepLookup + 1]int
	sorted := true
	for i, st := range steps {
		at[st.kind]++
		sorted = sorted && (i == 0 || steps[i-1].kind <= st.kind)
	}
	if sorted {
		return
	}
	sum := 0
	for k, n := range at {
		at[k], sum = sum, sum+n
	}
	lw.grouped = append(lw.grouped[:0], steps...)
	for _, st := range lw.grouped {
		steps[at[st.kind]] = st
		at[st.kind]++
	}
}

// writes reports whether a step lowered from position from on writes f.
func (lw *lowering) writes(f fieldID, from int) bool {
	for _, st := range lw.steps[from:] {
		switch {
		case st.kind <= stepKind(OpCsel):
			if st.dst == f {
				return true
			}
		case st.kind == stepSalu:
			op := &lw.salus[st.dst]
			if op.output != OutNone && op.outField == f || op.hasOvField && op.ovField == f {
				return true
			}
		}
	}
	return false
}

// liveAction marks which of a's instructions the plan keeps, adds what the
// kept ones and a's stateful op read to live, and reports whether a keeps a
// step.
func (lw *lowering) liveAction(a *cAction, live []bool) bool {
	var buf [4]fieldID
	kept := a.stateful != nil
	if kept {
		for _, f := range a.stateful.appendReads(buf[:0]) {
			live[f] = true
		}
	}
	for i := range a.instrs {
		ci := &a.instrs[i]
		k := live[ci.dst]
		lw.keep[a.instr0+i] = k
		if k {
			kept = true
			for _, f := range ci.appendReads(buf[:0]) {
				live[f] = true
			}
		}
	}
	return kept
}

// lowerAction appends the kept steps of a: its kept instructions, then its
// stateful op. params binds action-data operands as immediates (a table
// dissolved into one entry's action); nil leaves them to the action-data
// slots the matched entry fills.
func (c *compiled) lowerAction(lw *lowering, a *cAction, params []uint32) {
	resolve := func(o cOperand) operand {
		switch o.kind {
		case srcField:
			return operand{id: uint32(o.field), sx: uint8(32 - c.ft.width(o.field))}
		case srcParam:
			if params != nil {
				return operand{id: c.constSlot(lw, params[o.param])}
			}
			return operand{id: uint32(c.paramBase + o.param)}
		}
		return operand{id: c.constSlot(lw, o.imm)}
	}
	for i := range a.instrs {
		if !lw.keep[a.instr0+i] {
			continue
		}
		ci := &a.instrs[i]
		lw.steps = append(lw.steps, step{
			kind: stepKind(ci.op), dst: ci.dst, mask: c.ft.masks[ci.dst],
			a: resolve(ci.a), b: resolve(ci.b), pred: ci.pred,
		})
	}
	if op := a.stateful; op != nil {
		w := c.regDecls[op.regID].Width
		ps := planSalu{
			cStatefulOp: op,
			mask:        widthMask(w), signBit: 1 << (w - 1), width: uint32(w), sx: uint8(32 - w),
		}
		if op.output != OutNone {
			ps.outMask = c.ft.masks[op.outField]
		}
		lw.steps = append(lw.steps, step{kind: stepSalu, dst: fieldID(len(lw.salus)), a: lw.zero, b: lw.zero})
		lw.salus = append(lw.salus, ps)
	}
}

// runPlan executes one gress on phv.
func (s *Switch) runPlan(phv *Phv, pl *plan) error {
	vals, steps := phv.vals, pl.steps
	params := vals[s.c.paramBase:] // the matched entry's action data goes here
	for pc := 0; pc < len(steps); {
		st := &steps[pc]
		pc += 1 + int(st.skip)

		// Control steps read, but for a lookup's one-field key, the constant
		// 0 as operands: the loads are idle for them.
		a, b := vals[st.a.id], vals[st.b.id]
		var v uint32
		switch st.kind {
		case stepLookup:
			t := &pl.tables[st.dst]
			row := vals[t.row]
			if !t.reuse {
				key := uint64(a)
				if len(t.key) != 1 {
					key = t.buildKey(vals)
				}
				row = t.match(key)
				vals[t.row] = row
			}
			h := t.hit(row)
			if h.action == nil {
				pc = t.end
				continue
			}
			copy(params, h.params[:h.action.nParams])
			pc = t.start[h.action.idx]
			continue
		case stepSalu:
			if err := s.salu(&pl.salus[st.dst], vals); err != nil {
				return err
			}
			continue

		case stepKind(OpMov):
			v = a
		case stepKind(OpAdd):
			v = a + b
		case stepKind(OpSub):
			v = a - b
		case stepKind(OpOr):
			v = a | b
		case stepKind(OpShl):
			v = shl32(a, b)
		case stepKind(OpShrL):
			v = shrl32(a, b)
		case stepKind(OpShrA):
			v = uint32(shra32(signExtend(a, st.a.sx), b))
		case stepKind(OpEq):
			v = boolBit(a == b)
		case stepKind(OpNe):
			v = boolBit(a != b)
		case stepKind(OpLtS):
			v = boolBit(signExtend(a, st.a.sx) < signExtend(b, st.b.sx))
		case stepKind(OpGeS):
			v = boolBit(signExtend(a, st.a.sx) >= signExtend(b, st.b.sx))
		case stepKind(OpCsel):
			v = b
			if vals[st.pred] != 0 {
				v = a
			}
		}
		vals[st.dst] = v & st.mask
	}
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
		pred = op.cond.Cmp.apply(int64(in), int64(old)+op.cond.Off)
	case CondPhv:
		pred = op.cond.Cmp.apply(int64(vals[op.condField]), op.cond.Off)
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
	case UMaxIn:
		if op.greater(in, old) {
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
