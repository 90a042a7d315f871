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
	tb := mustNew[string](16)
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
	tb := mustNew[string](8)
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
	tb := mustNew[string](8)
	tb.Insert(Entry[string]{Value: 0, Mask: 0, Priority: 5, Action: "first"})
	tb.Insert(Entry[string]{Value: 0, Mask: 0, Priority: 5, Action: "second"})
	if a, _ := tb.Lookup(0x42); a != "first" {
		t.Errorf("tiebreak = %q, want first (earlier insertion wins)", a)
	}
}

func TestValueNormalization(t *testing.T) {
	tb := mustNew[int](8)
	// Value bits outside the mask must be ignored.
	tb.Insert(Entry[int]{Value: 0xFF, Mask: 0x0F, Action: 9})
	if a, ok := tb.Lookup(0x0F); !ok || a != 9 {
		t.Errorf("Lookup(0x0F) = %d,%v; value outside mask not normalized", a, ok)
	}
}

func TestWidth64(t *testing.T) {
	tb := mustNew[int](64)
	tb.Insert(Entry[int]{Value: ^uint64(0), Mask: ^uint64(0), Action: 1})
	if _, ok := tb.Lookup(^uint64(0)); !ok {
		t.Error("64-bit full match failed")
	}
}

func TestLPMLongestWins(t *testing.T) {
	l := mustNewLPM[string](32)
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
	l := mustNewLPM[int](16)
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
	if n := len(c.lpm.t.planes); n != 33 {
		t.Errorf("CLZ entries = %d, want 33", n)
	}
	if c.width != 32 {
		t.Errorf("CLZ width = %d", c.width)
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

// TestLookupMatchesNaiveOracle holds the ordered table to the definition:
// of all rows matching a key, the highest priority wins and the earliest
// insertion breaks ties. Seeded sequences of inserts (overlapping masks,
// few distinct priorities so ties are common) start over on a fresh table
// now and then.
func TestLookupMatchesNaiveOracle(t *testing.T) {
	type row struct {
		value, mask uint64
		prio, seq   int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const width = 12
		tb := mustNew[int](width)
		var rows []row
		check := func(step int) {
			t.Helper()
			if len(tb.planes) != len(rows) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, len(tb.planes), len(rows))
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
			switch rng.Intn(20) {
			case 0:
				tb = mustNew[int](width)
				rows = rows[:0]
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

func mustNew[A any](width int) *Table[A] {
	t, err := New[A](width)
	if err != nil {
		panic(err)
	}
	return t
}

func mustNewLPM[A any](width int) *LPM[A] {
	l, err := NewLPM[A](width)
	if err != nil {
		panic(err)
	}
	return l
}
