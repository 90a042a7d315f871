package tcam

import "fmt"

// LPM is a longest-prefix-match table implemented on a TCAM, exactly as IP
// routing tables are on PISA switches: an entry with prefix length L gets
// priority L, so the longest matching prefix wins.
type LPM[A any] struct {
	t *Table[A]
}

// NewLPM creates an LPM table over keys of the given bit width.
func NewLPM[A any](width int) (*LPM[A], error) {
	t, err := New[A](width)
	if err != nil {
		return nil, err
	}
	return &LPM[A]{t: t}, nil
}

// Insert installs a prefix of the given length (0..width). The prefix is the
// high-order bits of the key, i.e. prefix/length in CIDR terms.
func (l *LPM[A]) Insert(prefix uint64, length int, action A) error {
	w := l.t.Width()
	if length < 0 || length > w {
		return fmt.Errorf("lpm: prefix length %d out of range 0..%d", length, w)
	}
	var mask uint64
	if length > 0 {
		mask = (1<<length - 1) << (w - length)
	}
	l.t.Insert(Entry[A]{Value: prefix, Mask: mask, Priority: length, Action: action})
	return nil
}

// Lookup returns the action of the longest matching prefix.
func (l *LPM[A]) Lookup(key uint64) (A, bool) { return l.t.Lookup(key) }

// CLZ is a count-leading-zeros unit built from an LPM table, the mechanism
// of paper Fig. 5: entry i has only bit (width-1-i) set with an (i+1)-bit
// prefix mask, so key k matches entry i exactly when k has i leading zeros.
type CLZ struct {
	lpm   *LPM[int]
	width int
}

// NewCLZ builds the lookup unit for keys of the given width (1..64).
// It installs width entries plus a default (all-zero key) entry.
func NewCLZ(width int) (*CLZ, error) {
	lpm, err := NewLPM[int](width)
	if err != nil {
		return nil, err
	}
	for i := 0; i < width; i++ {
		prefix := uint64(1) << (width - 1 - i)
		if err := lpm.Insert(prefix, i+1, i); err != nil {
			return nil, err
		}
	}
	// Default entry: key 0 has `width` leading zeros.
	if err := lpm.Insert(0, 0, width); err != nil {
		return nil, err
	}
	return &CLZ{lpm: lpm, width: width}, nil
}

// MustNewCLZ is NewCLZ, panicking on error.
func MustNewCLZ(width int) *CLZ {
	c, err := NewCLZ(width)
	if err != nil {
		panic(err)
	}
	return c
}

// Count returns the number of leading zero bits in key (within the table
// width), equivalent to bits.LeadingZeros but computed by table match.
func (c *CLZ) Count(key uint64) int {
	n, ok := c.lpm.Lookup(key)
	if !ok {
		return c.width // unreachable: the default entry always matches
	}
	return n
}
