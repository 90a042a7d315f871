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
	// Stage places the table in a specific stage of its gress; -1 lets the
	// compiler choose the earliest stage satisfying dependencies.
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
	actions map[string]*cAction
	// An exact table's entries, sorted by key: exactHits[i] belongs to
	// exactKeys[i]. A key of at most denseKeyBits is looked up by direct
	// index instead of by search: dense[key] is 1 + its entry's position,
	// 0 for no entry.
	exactKeys []uint64
	exactHits []cHit
	dense     []uint16
	ternary   *tcam.Table[cHit]
	lpm       *tcam.LPM[cHit]
	default_  *cAction
	stage     int
	// idx is the table's position in declaration order.
	idx int
	// end is the pc past a keyed table's steps in its gress's plan, where a
	// miss without a default action continues.
	end int
}

// denseKeyBits bounds the exact-match keys that get a direct index (one
// 16-bit word per possible key). A lookup by index does not branch on the
// key, which a search over sorted keys does on every probe — and the FPISA
// program's exact tables all match the 8-bit opcode.
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
	// start and end bound the action's steps in its gress's plan (keyed
	// tables only; an always-table's action has no entry point). An action
	// without steps starts past its table.
	start, end int
}

// buildKey concatenates key field values, first field in the highest bits,
// mirroring hardware key construction.
func (t *cTable) buildKey(p *Phv) uint64 {
	var k uint64
	for _, f := range t.key {
		k |= uint64(p.vals[f.id]) << f.shift
	}
	return k
}

// lookup returns the action (plus its action data) a keyed table executes
// for a built key: the hit entry's, else the default action; a nil action
// means a no-op miss. It never mutates the table, so replicas can look up
// concurrently.
func (t *cTable) lookup(key uint64) cHit {
	switch t.decl.Kind {
	case MatchExact:
		if t.dense != nil {
			if i := t.dense[key]; i != 0 {
				return t.exactHits[i-1]
			}
			break
		}
		if i, ok := slices.BinarySearch(t.exactKeys, key); ok {
			return t.exactHits[i]
		}
	case MatchTernary:
		if h, ok := t.ternary.Lookup(key); ok {
			return h
		}
	case MatchLPM:
		if h, ok := t.lpm.Lookup(key); ok {
			return h
		}
	}
	return cHit{action: t.default_}
}
