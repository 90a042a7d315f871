package pisa

import (
	"slices"

	"fpisa/internal/tcam"
)

// MatchKind is the match type of a table.
type MatchKind int

const (
	// MatchAlways runs the default action unconditionally (a "gateway" /
	// keyless table).
	MatchAlways MatchKind = iota
	// MatchExact matches the concatenated key fields exactly (SRAM).
	MatchExact
	// MatchTernary matches value/mask entries by priority (TCAM).
	MatchTernary
	// MatchLPM is longest-prefix match on a single key field (TCAM).
	MatchLPM
)

func (k MatchKind) String() string {
	switch k {
	case MatchAlways:
		return "always"
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchLPM:
		return "lpm"
	}
	return "unknown"
}

// ActionDecl is a named action: a bundle of VLIW instructions (executed in
// parallel against the stage-entry PHV) plus at most one stateful op.
type ActionDecl struct {
	Name     string
	Instrs   []Instr
	Stateful *StatefulOp
}

// EntryDecl installs one match entry mapping key bits to an action.
type EntryDecl struct {
	// Value holds the key bits (the concatenation of key fields for exact
	// match, the single key field for ternary/LPM), high field first.
	Value uint64
	// Mask is the ternary care mask (MatchTernary only).
	Mask uint64
	// PrefixLen is the prefix length (MatchLPM only).
	PrefixLen int
	// Priority orders ternary entries.
	Priority int
	// Action names the ActionDecl to run on match.
	Action string
	// Params is the entry's action data, bound to the action's P(i)
	// operands on a hit.
	Params []uint32
}

// TableDecl declares one logical match-action table.
type TableDecl struct {
	Name string
	// Stage is the table's stage in its gress, 0 up to the gress's stage
	// count minus one; every table names one, and the compiler checks the
	// dataflow against it rather than choosing.
	Stage int
	// Egress places the table in the egress pipeline.
	Egress bool
	Kind   MatchKind
	// Key lists the match key fields (exact: any number; ternary/LPM:
	// exactly one).
	Key []string
	// Actions are the action implementations this table can invoke.
	Actions []ActionDecl
	// Entries are the installed match entries.
	Entries []EntryDecl
	// Default names the action to run on miss ("" = no-op on miss).
	Default string
}

// cHit is a matched action plus its entry's action data.
type cHit struct {
	action *cAction
	params []uint32
}

// compiled table. Immutable after compile, so replicas can share it.
type cTable struct {
	decl TableDecl
	// key lists the key fields, each with its bit position in the
	// concatenated key: the widths of the fields after it.
	key     []keyField
	keyBits int
	actions []*cAction // declaration order
	// rows holds a keyed table's entries, indexed by the row a lookup
	// matches: an exact table's sorted by key (rows[i] belongs to
	// exactKeys[i]), a ternary or LPM table's in declaration order, each
	// TCAM row's action being its entry's index.
	rows      []cHit
	exactKeys []uint64
	ternary   *tcam.Table[uint32]
	lpm       *tcam.LPM[uint32]
	default_  *cAction
	stage     int
	// idx is the table's position in declaration order.
	idx int
}

type keyField struct {
	id    fieldID
	shift uint8
}

type cAction struct {
	name     string
	instrs   []cInstr
	stateful *cStatefulOp
	// nParams is the number of action-data parameters the instructions
	// reference; entries must supply at least this many.
	nParams int
}

// action returns the table's action of that name, or nil.
func (t *cTable) action(name string) *cAction {
	for _, a := range t.actions {
		if a.name == name {
			return a
		}
	}
	return nil
}

// buildKey concatenates key field values, first field in the highest bits,
// mirroring hardware key construction.
func (t *cTable) buildKey(vals []uint32) uint64 {
	var k uint64
	for _, f := range t.key {
		k |= uint64(vals[f.id]) << f.shift
	}
	return k
}

// lookup returns the action (plus its action data) the table executes for
// a built key: the matched entry's, or the default action on a miss; a nil
// action means a no-op miss. It never mutates the table, so replicas can
// look up concurrently.
func (t *cTable) lookup(key uint64) cHit {
	var row uint32
	ok := false
	switch t.decl.Kind {
	case MatchExact:
		var i int
		i, ok = slices.BinarySearch(t.exactKeys, key)
		row = uint32(i)
	case MatchTernary:
		row, ok = t.ternary.Lookup(key)
	case MatchLPM:
		row, ok = t.lpm.Lookup(key)
	}
	if !ok {
		return cHit{action: t.default_}
	}
	return t.rows[row]
}
