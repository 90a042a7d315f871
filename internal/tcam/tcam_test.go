package tcam

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, w := range []int{0, -1, 65} {
		if _, err := New[int](w); err == nil {
			t.Errorf("New(%d) should fail", w)
		}
	}
	for _, w := range []int{1, 32, 64} {
		if _, err := New[int](w); err != nil {
			t.Errorf("New(%d) failed: %v", w, err)
		}
	}
}

func TestExactMatchViaFullMask(t *testing.T) {
	tb := MustNew[string](16)
	tb.Insert(Entry[string]{Value: 0xBEEF, Mask: 0xFFFF, Action: "beef"})
	tb.Insert(Entry[string]{Value: 0xCAFE, Mask: 0xFFFF, Action: "cafe"})

	if a, ok := tb.Lookup(0xBEEF); !ok || a != "beef" {
		t.Errorf("Lookup(0xBEEF) = %q,%v", a, ok)
	}
	if _, ok := tb.Lookup(0x1234); ok {
		t.Error("unexpected match")
	}
}

func TestWildcardAndPriority(t *testing.T) {
	tb := MustNew[string](8)
	tb.Insert(Entry[string]{Value: 0x00, Mask: 0x00, Priority: 0, Action: "default"})
	tb.Insert(Entry[string]{Value: 0xF0, Mask: 0xF0, Priority: 10, Action: "highnib"})
	tb.Insert(Entry[string]{Value: 0xFF, Mask: 0xFF, Priority: 20, Action: "exact"})

	cases := []struct {
		key  uint64
		want string
	}{
		{0xFF, "exact"},
		{0xF7, "highnib"},
		{0x12, "default"},
	}
	for _, c := range cases {
		if a, _ := tb.Lookup(c.key); a != c.want {
			t.Errorf("Lookup(%#x) = %q, want %q", c.key, a, c.want)
		}
	}
}

func TestInsertionOrderTiebreak(t *testing.T) {
	tb := MustNew[string](8)
	tb.Insert(Entry[string]{Value: 0, Mask: 0, Priority: 5, Action: "first"})
	tb.Insert(Entry[string]{Value: 0, Mask: 0, Priority: 5, Action: "second"})
	if a, _ := tb.Lookup(0x42); a != "first" {
		t.Errorf("tiebreak = %q, want first (earlier insertion wins)", a)
	}
}

func TestDelete(t *testing.T) {
	tb := MustNew[int](8)
	tb.Insert(Entry[int]{Value: 0x10, Mask: 0xF0, Action: 1})
	tb.Insert(Entry[int]{Value: 0x10, Mask: 0xF0, Action: 2})
	tb.Insert(Entry[int]{Value: 0x20, Mask: 0xF0, Action: 3})
	if n := tb.Delete(0x10, 0xF0); n != 2 {
		t.Errorf("Delete removed %d, want 2", n)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
	if _, ok := tb.Lookup(0x15); ok {
		t.Error("deleted entry still matches")
	}
}

func TestBitsAccounting(t *testing.T) {
	tb := MustNew[int](32)
	tb.Insert(Entry[int]{Value: 1, Mask: 0xFFFFFFFF})
	tb.Insert(Entry[int]{Value: 2, Mask: 0xFFFFFFFF})
	if got := tb.Bits(); got != 2*2*32 {
		t.Errorf("Bits = %d, want %d", got, 2*2*32)
	}
}

func TestValueNormalization(t *testing.T) {
	tb := MustNew[int](8)
	// Value bits outside the mask must be ignored.
	tb.Insert(Entry[int]{Value: 0xFF, Mask: 0x0F, Action: 9})
	if a, ok := tb.Lookup(0x0F); !ok || a != 9 {
		t.Errorf("Lookup(0x0F) = %d,%v; value outside mask not normalized", a, ok)
	}
}

func TestWidth64(t *testing.T) {
	tb := MustNew[int](64)
	tb.Insert(Entry[int]{Value: ^uint64(0), Mask: ^uint64(0), Action: 1})
	if _, ok := tb.Lookup(^uint64(0)); !ok {
		t.Error("64-bit full match failed")
	}
}

func TestLPMLongestWins(t *testing.T) {
	l := MustNewLPM[string](32)
	// Mirror of a routing table: 10.0.0.0/8, 10.1.0.0/16, default.
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(l.Insert(0x0A000000, 8, "/8"))
	check(l.Insert(0x0A010000, 16, "/16"))
	check(l.Insert(0, 0, "default"))

	cases := []struct {
		key  uint64
		want string
	}{
		{0x0A010203, "/16"},
		{0x0A020304, "/8"},
		{0x0B000000, "default"},
	}
	for _, c := range cases {
		if a, _ := l.Lookup(c.key); a != c.want {
			t.Errorf("Lookup(%#x) = %q, want %q", c.key, a, c.want)
		}
	}
}

func TestLPMInvalidLength(t *testing.T) {
	l := MustNewLPM[int](16)
	if err := l.Insert(0, 17, 0); err == nil {
		t.Error("length > width accepted")
	}
	if err := l.Insert(0, -1, 0); err == nil {
		t.Error("negative length accepted")
	}
}

func TestCLZMatchesHardwareInstruction(t *testing.T) {
	c := MustNewCLZ(32)
	cases := []uint32{0, 1, 2, 3, 0x80000000, 0x7FFFFFFF, 0x00800000, 0xFFFFFFFF, 42}
	for _, k := range cases {
		want := bits.LeadingZeros32(k)
		if got := c.Count(uint64(k)); got != want {
			t.Errorf("CLZ(%#x) = %d, want %d", k, got, want)
		}
	}
}

func TestCLZQuickEquivalence(t *testing.T) {
	c := MustNewCLZ(32)
	f := func(k uint32) bool {
		return c.Count(uint64(k)) == bits.LeadingZeros32(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestCLZAllSingleBitKeys(t *testing.T) {
	c := MustNewCLZ(32)
	for i := 0; i < 32; i++ {
		k := uint64(1) << i
		if got := c.Count(k); got != 31-i {
			t.Errorf("CLZ(1<<%d) = %d, want %d", i, got, 31-i)
		}
	}
}

func TestCLZEntryBudget(t *testing.T) {
	// The paper's Fig. 5 table: width+1 rows for a 32-bit key (one per
	// leading-zero count plus default) — tiny compared to switch TCAM.
	c := MustNewCLZ(32)
	if c.Entries() != 33 {
		t.Errorf("CLZ entries = %d, want 33", c.Entries())
	}
	if c.Width() != 32 {
		t.Errorf("CLZ width = %d", c.Width())
	}
	if c.Bits() != 33*2*32 {
		t.Errorf("CLZ bits = %d", c.Bits())
	}
}

func TestCLZWidth24(t *testing.T) {
	// FP16 mantissas use narrower registers; check a non-32 width.
	c := MustNewCLZ(24)
	for trial := 0; trial < 1000; trial++ {
		k := uint64(rand.Uint32()) & (1<<24 - 1)
		want := bits.LeadingZeros32(uint32(k)) - 8
		if got := c.Count(k); got != want {
			t.Fatalf("CLZ24(%#x) = %d, want %d", k, got, want)
		}
	}
}

func TestClear(t *testing.T) {
	tb := MustNew[int](8)
	tb.Insert(Entry[int]{Value: 1, Mask: 0xFF, Action: 1})
	tb.Clear()
	if tb.Len() != 0 {
		t.Error("Clear did not empty table")
	}
	if _, ok := tb.Lookup(1); ok {
		t.Error("match after Clear")
	}
}

// TestLookupMatchesNaiveOracle holds the ordered table to the definition:
// of all rows matching a key, the highest priority wins and the earliest
// insertion breaks ties. Seeded sequences interleave inserts (overlapping
// masks, few distinct priorities so ties are common), deletes and clears.
func TestLookupMatchesNaiveOracle(t *testing.T) {
	type row struct {
		value, mask uint64
		prio, seq   int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const width = 12
		tb := MustNew[int](width)
		var rows []row
		check := func(step int) {
			t.Helper()
			if tb.Len() != len(rows) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, tb.Len(), len(rows))
			}
			for trial := 0; trial < 64; trial++ {
				key := uint64(rng.Intn(1 << width))
				want, found := -1, false
				var best row
				for _, r := range rows {
					if key&r.mask != r.value {
						continue
					}
					if !found || r.prio > best.prio || r.prio == best.prio && r.seq < best.seq {
						best, want, found = r, r.seq, true
					}
				}
				got, ok := tb.Lookup(key)
				if ok != found || ok && got != want {
					t.Fatalf("seed %d step %d: Lookup(%#x) = %d,%v, want %d,%v", seed, step, key, got, ok, want, found)
				}
			}
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				tb.Clear()
				rows = rows[:0]
			case r < 4 && len(rows) > 0:
				victim := rows[rng.Intn(len(rows))]
				kept := rows[:0]
				for _, r := range rows {
					if r.value != victim.value || r.mask != victim.mask {
						kept = append(kept, r)
					}
				}
				if n := tb.Delete(victim.value, victim.mask); n != len(rows)-len(kept) {
					t.Fatalf("seed %d step %d: Delete removed %d, want %d", seed, step, n, len(rows)-len(kept))
				}
				rows = kept
			default:
				// Few care bits and stray value bits outside the mask: rows
				// overlap and normalization matters.
				mask := uint64(rng.Intn(1<<width)) & uint64(rng.Intn(1<<width))
				value := uint64(rng.Intn(1 << width))
				prio := rng.Intn(4)
				tb.Insert(Entry[int]{Value: value, Mask: mask, Priority: prio, Action: step})
				rows = append(rows, row{value & mask, mask, prio, step})
			}
			check(step)
		}
	}
}
