package core

import (
	"fmt"
	"math/bits"
	"testing"

	"fpisa/internal/fpnum"
)

// refAccumulator is the per-value reference the Accumulator's kernel is
// held to: the same FPISA arithmetic written field by field, every value
// split and joined through its fpnum.Format, with its own shift helper and
// overflow test. It shares no code with add, extract or ReadBits, so a fault in
// the kernel's field constants cannot hide in both.
type refAccumulator struct {
	cfg      Config
	f        fpnum.Format
	headroom int
	exps     []uint32
	mans     []int32
	flags    []slotFlags
	stats    Stats
}

func newRefAccumulator(cfg Config, n int) *refAccumulator {
	return &refAccumulator{
		cfg:      cfg,
		f:        cfg.Profile.Format.Format(),
		headroom: cfg.Profile.Headroom(),
		exps:     make([]uint32, n),
		mans:     make([]int32, n),
		flags:    make([]slotFlags, n),
	}
}

// refSar arithmetic-right-shifts v by at most 31 and reports whether
// nonzero bits were shifted out.
func refSar(v int32, by int) (int32, bool) {
	if by > 31 {
		by = 31
	}
	out := v >> uint(by)
	return out, int64(out)<<uint(by) != int64(v)
}

func (a *refAccumulator) extract(bitsIn uint32) (e uint32, m int32, special bool) {
	f := a.f
	sign, exp, frac := f.Split(uint64(bitsIn))
	if exp == f.ExpMask() {
		return 0, 0, true
	}
	man := uint32(frac)
	e = uint32(exp)
	if exp != 0 {
		man |= 1 << f.ManBits
	} else {
		e = 1
	}
	m = int32(man << a.cfg.Profile.Guard)
	if sign != 0 {
		m = -m
	}
	return e, m, false
}

func (a *refAccumulator) AddBits(i int, bitsIn uint32) {
	e, m, special := a.extract(bitsIn)
	if special {
		a.flags[i] |= flagInvalid
		a.stats.SpecialInputs++
		return
	}
	E, M := a.exps[i], a.mans[i]
	d := int(e) - int(E)
	var next int64
	leftPath := false
	switch {
	case d <= 0:
		shifted, inexact := refSar(m, -d)
		if inexact {
			a.stats.InexactRightShifts++
		}
		next = int64(M) + int64(shifted)
		a.stats.RightShiftPath++
	case a.cfg.Mode == ModeFull:
		shifted, inexact := refSar(M, d)
		if inexact {
			a.stats.InexactStoredShifts++
		}
		next = int64(shifted) + int64(m)
		a.exps[i] = e
		a.stats.StoredShiftPath++
	case d <= a.headroom:
		next = int64(M) + int64(m)<<uint(d)
		a.stats.LeftShiftPath++
		leftPath = true
	default:
		if M != 0 {
			a.stats.OverwriteDiscards++
		}
		next = int64(m)
		a.exps[i] = e
		a.stats.OverwritePath++
	}
	if next != int64(int32(next)) {
		a.flags[i] |= flagOverflow
		a.stats.Overflows++
		if leftPath {
			a.stats.LeftShiftOverflows++
		}
	}
	a.mans[i] = int32(next)
	a.stats.Adds++
}

func (a *refAccumulator) ReadBits(i int) uint32 {
	f := a.f
	if a.flags[i]&flagInvalid != 0 {
		return uint32(f.Join(0, f.ExpMask(), 1<<(f.ManBits-1)))
	}
	M := a.mans[i]
	if M == 0 {
		return 0
	}
	var sign uint64
	var u uint32
	if M < 0 {
		sign = 1
		u = uint32(-int64(M))
	} else {
		u = uint32(M)
	}
	p := 31 - bits.LeadingZeros32(u)
	manBits := f.ManBits
	eOut := int(a.exps[i]) - int(a.cfg.Profile.Guard) + (p - manBits)
	var mant uint32
	if shift := p - manBits; shift > 0 {
		mant = a.roundShift(u, shift)
		if mant == 1<<uint(manBits+1) {
			mant >>= 1
			eOut++
		}
	} else {
		mant = u << uint(-shift)
	}
	switch {
	case eOut >= int(f.ExpMask()):
		a.stats.ReadOverflows++
		return uint32(f.Join(sign, f.ExpMask(), 0))
	case eOut <= 0:
		a.stats.ReadUnderflows++
		extra := 1 - eOut
		if extra > manBits+1 {
			return uint32(f.Join(sign, 0, 0))
		}
		return uint32(f.Join(sign, 0, uint64(mant>>uint(extra))))
	}
	return uint32(f.Join(sign, uint64(eOut), uint64(mant)))
}

func (a *refAccumulator) roundShift(u uint32, shift int) uint32 {
	if shift >= 32 {
		return 0
	}
	out := u >> uint(shift)
	if a.cfg.Profile.Rounding == RoundingRNE {
		dropped := u & (1<<uint(shift) - 1)
		half := uint32(1) << uint(shift-1)
		if dropped > half || (dropped == half && out&1 == 1) {
			out++
		}
	}
	return out
}

func (a *refAccumulator) Overflowed(i int) bool { return a.flags[i]&flagOverflow != 0 }

func (a *refAccumulator) Reset(i int) { a.exps[i], a.mans[i], a.flags[i] = 0, 0, 0 }

// exhaustiveStates are the register states every 16-bit wire pattern is
// added into: empty, a mid-range sum, a large negative one, one a single
// same-exponent add can overflow, and a small one that reads out below the
// format's normal range. The exponents are shares of the format's range,
// so each lands inside it.
func exhaustiveStates(f fpnum.Format) []struct {
	exp uint32
	man int32
} {
	top := uint32(f.ExpMask())
	return []struct {
		exp uint32
		man int32
	}{
		{0, 0},
		{top / 2, 0x00c0_ffee},
		{top - 3, -0x6000_0000},
		{top / 4, 0x7fff_ff00},
		{1, 0x155},
	}
}

// TestKernelMatchesReferenceEveryHalfWord adds every f16 and bf16 wire
// pattern — zeros, subnormals, normals, ±Inf and every NaN payload — into
// each of exhaustiveStates under every admitted 16-bit profile × mode, then
// reads the slot out, on the Accumulator and on refAccumulator. The
// read-out bits, the register pair, the flags and the Stats must agree.
// Under the race detector, which looks for nothing in these
// single-goroutine loops, only the extreme guard-bit counts (0, 1 and the
// largest) run.
func TestKernelMatchesReferenceEveryHalfWord(t *testing.T) {
	for _, cfg := range wireBitsConfigs() {
		p := cfg.Profile
		if p.ValueBytes() != 2 {
			continue
		}
		if raceEnabled && p.Guard > 1 && int(p.Guard) < (NumericProfile{Format: p.Format}).Headroom()-1 {
			continue
		}
		t.Run(fmt.Sprintf("%v_%v", cfg.Profile, cfg.Mode), func(t *testing.T) {
			t.Parallel()
			got := MustNewAccumulator(cfg, 1)
			want := newRefAccumulator(cfg, 1)
			for _, st := range exhaustiveStates(cfg.Profile.Format.Format()) {
				for b := uint32(0); b < 1<<16; b++ {
					got.exps[0], got.mans[0], got.flags[0] = st.exp, st.man, 0
					want.exps[0], want.mans[0], want.flags[0] = st.exp, st.man, 0
					got.add(0, b)
					want.AddBits(0, b)
					g, w := got.ReadBits(0), want.ReadBits(0)
					if g != w || got.exps[0] != want.exps[0] || got.mans[0] != want.mans[0] || got.flags[0] != want.flags[0] {
						t.Fatalf("state %+v + %#04x: read %#04x (exp %d man %d flags %b), reference %#04x (exp %d man %d flags %b)",
							st, b, g, got.exps[0], got.mans[0], got.flags[0], w, want.exps[0], want.mans[0], want.flags[0])
					}
				}
			}
			if got.stats != want.stats {
				t.Fatalf("stats %+v, reference %+v", got.stats, want.stats)
			}
		})
	}
}
