// Package tcam implements a ternary content-addressable memory and a
// longest-prefix-match table built on it, the switch memory primitive FPISA
// repurposes as a count-leading-zeros unit (paper §3.2, Fig. 5).
//
// A TCAM row stores a value and a care-mask; a search key matches a row when
// the key agrees with the value on every care bit. When several rows match,
// the row with the highest priority wins, with earlier insertion breaking
// ties — the same semantics as hardware TCAM row ordering.
//
// Integration status: internal/pisa backs its ternary and LPM tables with
// these. In the FPISA program those are each module's two egress
// renormalisation LPMs (Fig. 5: locate the leading one, then shift the
// mantissa and adjust the exponent), which declare the same rows for the
// same key and each scan them, and, on the base architecture only, the
// ingress alignment ternaries that expand the variable-distance shift into
// per-distance actions. No served packet runs the FPISA program: the
// switch sums on core's Accumulator, and pisa runs packets for tests,
// fpisa.SwitchSim and the benchmarks. Telemetry tenants' traffic classes
// (aggservice's ClassTelemetry) use no table: they are equal-length
// prefixes of the key's top bits, which aggservice computes as a shift,
// keeping an LPM table only as the test oracle that pins it. The LPM table
// also backs the CLZ microbenchmark in bench_test.go.
package tcam

import (
	"fmt"
	"slices"
)

// Entry is one TCAM row. Type parameter A is the action payload returned on
// a match (for the pipeline simulator this is the entry's index in its
// table's declaration; for the CLZ unit it is a shift distance).
type Entry[A any] struct {
	// Value holds the match bits; only bits selected by Mask are compared.
	Value uint64
	// Mask selects the care bits (1 = compared, 0 = wildcard).
	Mask uint64
	// Priority orders overlapping entries; larger wins.
	Priority int
	// Action is returned when this entry is the winning match.
	Action A
}

// plane is one row's match planes: what a search compares against.
type plane struct {
	value, mask uint64
}

// result is the rest of a row: what orders it and what a match returns.
type result[A any] struct {
	priority int
	action   A
}

// Table is a priority-ordered ternary match table. Rows are kept in match
// order — priority descending, insertion order within a priority — so the
// first matching row wins. A row's match planes are stored apart from its
// result (planes[i] belongs to results[i]): a search scans 16 bytes per row
// and touches one result, the winner's.
type Table[A any] struct {
	width   int
	planes  []plane
	results []result[A]
}

// New creates a TCAM matching keys of the given bit width (1..64).
func New[A any](width int) (*Table[A], error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("tcam: invalid width %d", width)
	}
	return &Table[A]{width: width}, nil
}

// Width returns the key width in bits.
func (t *Table[A]) Width() int { return t.width }

// keyMask returns a mask covering the table's key width.
func (t *Table[A]) keyMask() uint64 {
	if t.width == 64 {
		return ^uint64(0)
	}
	return 1<<t.width - 1
}

// Insert installs an entry. Value bits outside Mask or the key width are
// ignored for matching but normalized to zero for determinism.
func (t *Table[A]) Insert(e Entry[A]) {
	mask := e.Mask & t.keyMask()
	// The row goes behind every row of its priority or higher: later
	// insertion loses ties.
	at, _ := slices.BinarySearchFunc(t.results, e.Priority, func(row result[A], p int) int {
		if row.priority >= p {
			return -1
		}
		return 1
	})
	t.planes = slices.Insert(t.planes, at, plane{value: e.Value & mask, mask: mask})
	t.results = slices.Insert(t.results, at, result[A]{e.Priority, e.Action})
}

// Lookup returns the action of the winning entry for key, or ok=false when
// nothing matches.
func (t *Table[A]) Lookup(key uint64) (action A, ok bool) {
	for i, p := range t.planes {
		if key&p.mask == p.value {
			return t.results[i].action, true
		}
	}
	return action, false
}
