package pisa

import (
	"fmt"
	"strings"
)

// PlanDump renders, as canonical text, what the executor runs for every
// packet: the PHV slot bases, the constants, the dispatch field and the
// pass each of its values takes, and every emitting and absorbing pass's
// plans — each step's kind, destination, width mask, operand slots, skip
// and (for csel only) selector, then the plan's lookup tables and stateful
// ops. Two compiles that dump the same text run every packet the same way.
func (s *Switch) PlanDump() string {
	c := s.c
	var b strings.Builder
	fmt.Fprintf(&b, "slots param=%d row=%d const=%d\nconsts %v\ndispatch %d passes %v\n",
		c.paramBase, c.rowBase, c.constBase, c.consts, c.dispatch, c.passOf)
	for _, v := range []struct {
		name   string
		passes []pass
	}{{"emit", c.emit}, {"absorb", c.absorb}} {
		for i, p := range v.passes {
			fmt.Fprintf(&b, "%s pass %d\n", v.name, i)
			p.ingress.dump(&b, "ingress")
			p.egress.dump(&b, "egress")
		}
	}
	return b.String()
}

func (pl *plan) dump(b *strings.Builder, gress string) {
	fmt.Fprintf(b, " %s: %d steps\n", gress, len(pl.steps))
	for i, st := range pl.steps {
		kind := Opcode(st.kind).String()
		switch st.kind {
		case stepSalu:
			kind = "salu"
		case stepLookup:
			kind = "lookup"
		}
		fmt.Fprintf(b, "  %d %s dst=%d mask=%#x a=%d/%d b=%d/%d skip=%d", i, kind, st.dst, st.mask, st.a.id, st.a.sx, st.b.id, st.b.sx, st.skip)
		if st.kind == stepKind(OpCsel) {
			fmt.Fprintf(b, " sel=%d", st.pred)
		}
		b.WriteByte('\n')
	}
	for _, t := range pl.tables {
		fmt.Fprintf(b, "  table %s end=%d start=%v row=%d reuse=%v\n", t.decl.Name, t.end, t.start, t.row, t.reuse)
	}
	for _, op := range pl.salus {
		fmt.Fprintf(b, "  salu reg=%d index=%d in=%d/%v shift=%d/%v cond=%d", op.regID, op.index, op.in, op.hasIn, op.shift, op.hasShift, op.cond.Kind)
		if op.cond.Kind != CondAlways {
			fmt.Fprintf(b, " cmp=%s off=%d", dumpName(map[CmpOp]string{CmpNe: "ne", CmpGt: "gt"}, op.cond.Cmp), op.cond.Off)
		}
		if op.cond.Kind == CondPhv {
			fmt.Fprintf(b, " field=%d", op.condField)
		}
		updates := map[SaluUpdate]string{UKeepOld: "keep", USetIn: "set", UAddIn: "add", UZero: "zero", UMaxIn: "max", URsawAddIn: "rsaw"}
		fmt.Fprintf(b, " true=%s false=%s signed=%v out=%d/%d ovf=%d/%v mask=%#x sign=%#x width=%d sx=%d outmask=%#x\n",
			dumpName(updates, op.true_), dumpName(updates, op.false_), op.signed, op.output, op.outField,
			op.ovField, op.hasOvField, op.mask, op.signBit, op.width, op.sx, op.outMask)
	}
}

// dumpName is the name names gives v, or its number.
func dumpName[K comparable](names map[K]string, v K) string {
	if s, ok := names[v]; ok {
		return s
	}
	return fmt.Sprint(v)
}
