// Package tcam implements a ternary content-addressable memory and a
// longest-prefix-match table built on it, the switch memory primitive FPISA
// repurposes as a count-leading-zeros unit (paper §3.2, Fig. 5).
//
// A TCAM row stores a value and a care-mask; a search key matches a row when
// the key agrees with the value on every care bit. When several rows match,
// the row with the highest priority wins, with earlier insertion breaking
// ties — the same semantics as hardware TCAM row ordering.
//
// Integration status: wired into the data path — internal/pisa backs its
// ternary and LPM tables with these. In the FPISA program those are each
// module's two egress renormalisation LPMs (Fig. 5: locate the leading one,
// then shift the mantissa and adjust the exponent) and, on the base
// architecture only, the ingress alignment ternaries that expand the
// variable-distance shift into per-distance actions. Every pass that builds
// a response scans the LPMs: the ADD that completes a chunk, reads and
// drains. An absorbed pass (pisa.Switch.Absorb: every other ADD of a chunk,
// every analytics fold) runs no egress, so it reaches none of the LPMs, and
// only the base architecture's alignment ternaries, which feed the
// mantissa register. Telemetry tenants' traffic classes (aggservice's
// ClassTelemetry) use no table: they are equal-length prefixes of the key's
// top bits, which aggservice computes as a shift, keeping an LPM table only
// as the test oracle that pins it. The LPM table also backs the CLZ
// microbenchmark in bench_test.go.
package tcam

import (
	"fmt"
	"slices"
)

// Entry is one TCAM row. Type parameter A is the action payload returned on
// a match (for the pipeline simulator this is an action identifier; for the
// CLZ unit it is a shift distance).
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

// MustNew is New, panicking on error; for static table construction.
func MustNew[A any](width int) *Table[A] {
	t, err := New[A](width)
	if err != nil {
		panic(err)
	}
	return t
}

// Width returns the key width in bits.
func (t *Table[A]) Width() int { return t.width }

// Len returns the number of installed entries.
func (t *Table[A]) Len() int { return len(t.planes) }

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

// Delete removes all entries with the given value/mask pair and reports how
// many were removed.
func (t *Table[A]) Delete(value, mask uint64) int {
	mask &= t.keyMask()
	gone := plane{value: value & mask, mask: mask}
	kept := 0
	for i, p := range t.planes {
		if p == gone {
			continue
		}
		t.planes[kept], t.results[kept] = p, t.results[i]
		kept++
	}
	removed := len(t.planes) - kept
	clear(t.results[kept:]) // drop the removed rows' references
	t.planes, t.results = t.planes[:kept], t.results[:kept]
	return removed
}

// Clear removes every entry.
func (t *Table[A]) Clear() {
	clear(t.results)
	t.planes, t.results = t.planes[:0], t.results[:0]
}

// Bits returns the TCAM storage consumed, in ternary bits (each row costs
// 2× the key width: value plane + mask plane), used by the pipeline
// resource allocator.
func (t *Table[A]) Bits() int { return len(t.planes) * 2 * t.width }
