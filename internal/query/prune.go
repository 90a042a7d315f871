package query

// This file holds the two pruning register programs of §6: the state a
// switch keeps per query to forward only rows that can still contribute,
// while the master finishes exactly on the survivors. Pruning is lossless
// for Top-N and group-max. The fixed engine plan (Engine.RunSwitch) and the
// aggregation service's query tenants (internal/aggservice) run these same
// registers.

// TopNPruner is the Top-N pruner: a register array holding the N largest
// ordered keys seen; a row passes iff it reaches the current minimum.
type TopNPruner struct {
	reg []uint32 // len N; the first n are filled
	n   int
}

// NewTopNPruner provisions n ≥ 1 ordered-key registers.
func NewTopNPruner(n int) *TopNPruner { return &TopNPruner{reg: make([]uint32, n)} }

// Admit runs one row's value through the registers and reports whether the
// row survives. Ties at the boundary are admitted: the master's Finish
// breaks equal values by ascending key, so a tied row may belong in the
// exact result.
func (p *TopNPruner) Admit(val float32) bool {
	k := orderedKey(val)
	if p.n < len(p.reg) {
		p.reg[p.n] = k
		p.n++
		return true
	}
	mi := 0
	for i, r := range p.reg {
		if r < p.reg[mi] {
			mi = i
		}
	}
	if k >= p.reg[mi] {
		p.reg[mi] = k
		return true
	}
	return false
}

// Reset empties the registers.
func (p *TopNPruner) Reset() { p.n = 0 }

// GroupMaxPruner is the group-max pruner: one ordered-key register per
// bucket (key mod groups), tagged with the key that owns the current bucket
// max. Distinct keys can collide in a bucket; a row is pruned only when the
// bucket max belongs to the row's OWN key, so a colliding weaker group's
// max always survives to the master.
type GroupMaxPruner struct {
	groups uint32
	reg    map[uint32]maxReg
}

// maxReg is one bucket: the ordered-key max and the key owning it.
type maxReg struct {
	key uint32
	max uint32
}

// NewGroupMaxPruner provisions groups ≥ 1 buckets.
func NewGroupMaxPruner(groups int) *GroupMaxPruner {
	return &GroupMaxPruner{groups: uint32(groups), reg: make(map[uint32]maxReg, groups)}
}

// Admit runs one row through its bucket and reports whether the row
// survives.
func (p *GroupMaxPruner) Admit(key uint32, val float32) bool {
	k := orderedKey(val)
	b := key % p.groups
	cur, ok := p.reg[b]
	switch {
	case !ok:
		p.reg[b] = maxReg{key: key, max: k}
		return true
	case cur.key == key:
		// Same key owns the bucket: the usual group-max prune.
		if k > cur.max {
			p.reg[b] = maxReg{key: key, max: k}
			return true
		}
		return false
	default:
		// Collision: the register cannot distinguish this row's group from
		// the owner's, so prune conservatively — the row survives, and a
		// larger value takes over the bucket.
		if k > cur.max {
			p.reg[b] = maxReg{key: key, max: k}
		}
		return true
	}
}

// Reset empties every bucket.
func (p *GroupMaxPruner) Reset() { clear(p.reg) }
