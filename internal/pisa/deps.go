package pisa

import (
	"fmt"
	"sort"
)

// checkDependencies assigns stages to auto-placed tables and validates the
// PISA dataflow constraints:
//
//   - A field read in stage s must be produced by the parser, the
//     architecture, or a table in an earlier stage of the same gress (any
//     ingress stage for egress readers): data dependencies never flow
//     backward (§2.3).
//   - Two tables in the same gress and stage may not write the same field.
//   - Exactly one table accesses each register (one stateful access per
//     register per packet); the register lives in that table's stage and
//     gress, wherever the table is placed.
//
// It also flags each stage in which a table writes a field another table of
// the stage reads (ingressHazard, egressHazard): a table placed earlier in
// the stage may read what a later one writes, so those stages' steps keep
// placement order.
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
	// computed once: placement, the global re-validation, the conflict check
	// and the hazard flags below all consult them.
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

	assign := func(tables []*cTable, stages int, gressName string) ([][]*cTable, []bool, error) {
		// writersAt[f] = stages (same gress) that write field f.
		writersAt := make(map[fieldID][]int)
		out := make([][]*cTable, stages)

		for _, t := range tables {
			reads, writes := sets[t.idx].reads, sets[t.idx].writes

			// Earliest legal stage from read dependencies.
			min := 0
			for f := range reads {
				for _, ws := range writersAt[f] {
					if ws+1 > min {
						min = ws + 1
					}
				}
			}

			stage := t.stage
			if stage == -1 {
				stage = min
			}
			if stage < min {
				return nil, nil, fmt.Errorf("pisa: %s table %q: placed in stage %d but reads fields produced in stage %d; dependencies cannot flow backward",
					gressName, t.decl.Name, stage, min-1)
			}
			if stage >= stages {
				return nil, nil, fmt.Errorf("pisa: %s table %q: needs stage %d but the pipeline has %d stages",
					gressName, t.decl.Name, stage, stages)
			}
			t.stage = stage
			out[stage] = append(out[stage], t)
			for f := range writes {
				writersAt[f] = append(writersAt[f], stage)
			}
		}

		// Cross-check reads against all writers (declaration order above
		// only sees earlier-declared writers; catch later-declared ones
		// writing at later stages is fine, equal-or-later at same stage or
		// earlier-stage reads of later writers are violations only if the
		// reader's stage <= writer's stage — re-validate globally). A read of
		// a field another table of the reader's stage writes is a hazard:
		// within one table a pass runs one action, whose instructions read no
		// other's destination and whose stateful op — the highest step kind,
		// so it stays last — reads none of theirs. The conflict check below
		// refuses two writers of a field in one stage.
		hazard := make([]bool, stages)
		for _, t := range tables {
			for f := range sets[t.idx].reads {
				ok := parserWritten[f] || gressName == "egress" && ingressWrites[f]
				for _, ws := range writersAt[f] {
					ok = ok || ws < t.stage
					hazard[t.stage] = hazard[t.stage] || ws == t.stage && !sets[t.idx].writes[f]
				}
				if !ok {
					if len(writersAt[f]) > 0 {
						return nil, nil, fmt.Errorf("pisa: %s table %q (stage %d): reads field %q produced in stage %d; dependencies cannot flow backward",
							gressName, t.decl.Name, t.stage, c.ft.name(f), writersAt[f][0])
					}
					return nil, nil, fmt.Errorf("pisa: %s table %q (stage %d): reads field %q that nothing produces",
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
						return nil, nil, fmt.Errorf("pisa: %s stage %d: tables %q and %q both write field %q",
							gressName, s, o, t.decl.Name, c.ft.name(f))
					}
					owner[f] = t.decl.Name
				}
			}
		}
		return out, hazard, nil
	}

	var err error
	if c.ingress, c.ingressHazard, err = assign(ingress, c.arch.IngressStages, "ingress"); err != nil {
		return err
	}
	if c.egress, c.egressHazard, err = assign(egress, c.arch.EgressStages, "egress"); err != nil {
		return err
	}
	return nil
}

// tableIO returns the set of fields a table reads (keys, operands,
// predicates, stateful inputs) and writes (instruction dsts, stateful
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
