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
	actions []*cAction // declaration order: actions[i].idx == i
	// rows holds a keyed table's entries, indexed by the row match returns:
	// an exact table's sorted by key (rows[i] belongs to exactKeys[i]), a
	// ternary or LPM table's in declaration order, each TCAM row's action
	// being its entry's index. An exact key of at most denseKeyBits is
	// looked up by direct index instead of by search: dense[key] is 1 + its
	// entry's position, 0 for no entry.
	rows      []cHit
	exactKeys []uint64
	dense     []uint16
	ternary   *tcam.Table[uint32]
	lpm       *tcam.LPM[uint32]
	default_  *cAction
	stage     int
	// idx is the table's position in declaration order.
	idx int
}

// denseKeyBits bounds the exact-match keys that get a direct index (one
// 16-bit word per possible key). A lookup by index does not branch on the
// key, which a search over sorted keys does on every probe.
const denseKeyBits = 8

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
	// idx is the action's position in its table's declaration; instr0 is the
	// position of its first instruction in the program's (every action's
	// instructions in table, then action, declaration order).
	idx, instr0 int
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

// noRow is the row match returns for a key no entry matches.
const noRow = ^uint32(0)

// match returns the row in rows of the entry a built key hits, or noRow. It
// never mutates the table, so replicas can look up concurrently.
func (t *cTable) match(key uint64) uint32 {
	switch t.decl.Kind {
	case MatchExact:
		if t.dense != nil {
			return uint32(t.dense[key]) - 1 // 0, no entry, wraps to noRow
		}
		if i, ok := slices.BinarySearch(t.exactKeys, key); ok {
			return uint32(i)
		}
	case MatchTernary:
		if i, ok := t.ternary.Lookup(key); ok {
			return i
		}
	case MatchLPM:
		if i, ok := t.lpm.Lookup(key); ok {
			return i
		}
	}
	return noRow
}

// hit returns the action (plus its action data) the table executes for the
// row match returned: the entry's, or the default action for noRow; a nil
// action means a no-op miss.
func (t *cTable) hit(row uint32) cHit {
	if row < uint32(len(t.rows)) {
		return t.rows[row]
	}
	return cHit{action: t.default_}
}

// lookup returns what the table executes for a built key.
func (t *cTable) lookup(key uint64) cHit { return t.hit(t.match(key)) }
