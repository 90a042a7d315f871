package pisa

import (
	"fmt"
	"slices"
	"sort"
)

// checkDependencies files every table under the stage it names and
// validates the PISA dataflow constraints against every table's reads and
// writes at once, so the result does not depend on declaration order:
//
//   - A field read in stage s must be produced by the parser, the
//     architecture, or a table in an earlier stage of the same gress (any
//     ingress stage for egress readers): data dependencies never flow
//     backward (§2.3).
//   - Two tables in the same gress and stage may not write the same field,
//     and no table may read a field another table of its stage writes:
//     every table of a stage reads the stage-entry PHV, so tables that
//     depend on each other go in different stages (the Packet-Transactions
//     atom).
//   - Exactly one table accesses each register (one stateful access per
//     register per packet); the register lives in that table's stage and
//     gress.
func (c *compiled) checkDependencies() error {
	// Parser- and architecture-written fields.
	parserWritten := make(map[fieldID]bool)
	for _, e := range c.parser {
		parserWritten[e.field] = true
	}
	for _, e := range c.parserBits {
		parserWritten[e.field] = true
	}
	for _, b := range builtinFields {
		id, _ := c.ft.lookup(b.Name)
		parserWritten[id] = true
	}

	// All tables in declaration order, and each one's read and write sets,
	// computed once: the read check and the conflict check below consult
	// them.
	all := c.declared
	type ioSets struct{ reads, writes map[fieldID]bool }
	sets := make([]ioSets, len(all))
	for _, t := range all {
		sets[t.idx].reads, sets[t.idx].writes = c.tableIO(t)
	}

	// Register access uniqueness: each register has exactly one table.
	regUser := make(map[string]string)
	for _, t := range all {
		for _, a := range t.actions {
			if a.stateful == nil {
				continue
			}
			name := c.regDecls[a.stateful.regID].Name
			if u, ok := regUser[name]; ok && u != t.decl.Name {
				return fmt.Errorf("pisa: register %q accessed by tables %q and %q; a register supports one stateful access per packet",
					name, u, t.decl.Name)
			}
			regUser[name] = t.decl.Name
		}
	}
	for _, d := range c.regDecls {
		if regUser[d.Name] == "" {
			return fmt.Errorf("pisa: register %q: no table accesses it, so it has no stage", d.Name)
		}
	}

	// Split by gress, preserving declaration order.
	var ingress, egress []*cTable
	for _, t := range all {
		if t.decl.Egress {
			egress = append(egress, t)
		} else {
			ingress = append(ingress, t)
		}
	}

	// Fields some ingress table writes: an egress table may read them.
	ingressWrites := make(map[fieldID]bool)
	for _, t := range ingress {
		for f := range sets[t.idx].writes {
			ingressWrites[f] = true
		}
	}

	check := func(tables []*cTable, stages int, gressName string) ([][]*cTable, error) {
		// writersAt[f] = stages (same gress) that write field f.
		writersAt := make(map[fieldID][]int)
		out := make([][]*cTable, stages)
		for _, t := range tables {
			out[t.stage] = append(out[t.stage], t)
			for f := range sets[t.idx].writes {
				writersAt[f] = append(writersAt[f], t.stage)
			}
		}

		// Every read against every writer of its field: one in an earlier
		// stage produces it, one in a later stage alone would be a backward
		// read, and one in the reader's stage is refused. A table may read
		// what it writes itself: a packet runs one of its actions, whose
		// instructions read no other's destination and whose stateful op
		// reads none of theirs (compileAction). The conflict check below
		// refuses two writers of a field in one stage.
		for _, t := range tables {
			for f := range sets[t.idx].reads {
				ok := parserWritten[f] || gressName == "egress" && ingressWrites[f]
				for _, ws := range writersAt[f] {
					ok = ok || ws < t.stage
					if ws == t.stage && !sets[t.idx].writes[f] {
						w := out[ws][slices.IndexFunc(out[ws], func(u *cTable) bool { return sets[u.idx].writes[f] })]
						return nil, fmt.Errorf("pisa: %s table %q (stage %d): reads field %q, which table %q of its stage writes; every table of a stage reads the stage-entry PHV, so the reader must follow the writer's stage",
							gressName, t.decl.Name, ws, c.ft.name(f), w.decl.Name)
					}
				}
				if !ok {
					if len(writersAt[f]) > 0 {
						return nil, fmt.Errorf("pisa: %s table %q (stage %d): reads field %q produced in stage %d; dependencies cannot flow backward",
							gressName, t.decl.Name, t.stage, c.ft.name(f), writersAt[f][0])
					}
					return nil, fmt.Errorf("pisa: %s table %q (stage %d): reads field %q that nothing produces",
						gressName, t.decl.Name, t.stage, c.ft.name(f))
				}
			}
		}

		// Same-stage write conflicts across tables.
		for s := 0; s < stages; s++ {
			owner := make(map[fieldID]string)
			for _, t := range out[s] {
				writes := sets[t.idx].writes
				ws := make([]fieldID, 0, len(writes))
				for f := range writes {
					ws = append(ws, f)
				}
				sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
				for _, f := range ws {
					if o, dup := owner[f]; dup {
						return nil, fmt.Errorf("pisa: %s stage %d: tables %q and %q both write field %q",
							gressName, s, o, t.decl.Name, c.ft.name(f))
					}
					owner[f] = t.decl.Name
				}
			}
		}
		return out, nil
	}

	var err error
	if c.ingress, err = check(ingress, c.arch.IngressStages, "ingress"); err != nil {
		return err
	}
	if c.egress, err = check(egress, c.arch.EgressStages, "egress"); err != nil {
		return err
	}
	return nil
}

// tableIO returns the set of fields a table reads (keys, operands, csel
// selectors, stateful inputs) and writes (instruction dsts, stateful
// outputs).
func (c *compiled) tableIO(t *cTable) (reads, writes map[fieldID]bool) {
	reads = make(map[fieldID]bool)
	writes = make(map[fieldID]bool)
	for _, k := range t.key {
		reads[k.id] = true
	}
	var buf [4]fieldID
	for _, a := range t.actions {
		for i := range a.instrs {
			for _, r := range a.instrs[i].appendReads(buf[:0]) {
				reads[r] = true
			}
			writes[a.instrs[i].dst] = true
		}
		if s := a.stateful; s != nil {
			for _, r := range s.appendReads(buf[:0]) {
				reads[r] = true
			}
			if s.output != OutNone {
				writes[s.outField] = true
			}
			if s.hasOvField {
				writes[s.ovField] = true
			}
		}
	}
	return reads, writes
}
