package core

import (
	"fmt"
	"math"

	"fpisa/internal/fpnum"
)

// Advanced floating-point operations (paper Appendix A.2). Addition and
// comparison cover the paper's applications; multiplication, logarithms and
// square roots are sketched there for future in-switch uses (congestion
// control, security telemetry). Each is built the way the appendix
// prescribes: exponent arithmetic on integer ALUs plus small lookup tables
// for the mantissa part.

// MulExponentAdd multiplies two FP32 values the Appendix A way: exponents
// add as integers, mantissas multiply as integers (the Banzai integer-
// multiplier atom), then one renormalization shift. Subnormal inputs and
// outputs flush to zero, as a switch datapath would.
func MulExponentAdd(a, b float32) float32 {
	pa, pb := fpnum.Decompose32(a), fpnum.Decompose32(b)
	sign := pa.Sign ^ pb.Sign
	if pa.IsNaN() || pb.IsNaN() || pa.IsInf() || pb.IsInf() {
		return float32(math.NaN())
	}
	if pa.IsZero() || pb.IsZero() || pa.IsSubnormal() || pb.IsSubnormal() {
		return fpnum.Compose32(fpnum.Parts32{Sign: sign})
	}
	ma := uint64(pa.ExplicitMantissa())
	mb := uint64(pb.ExplicitMantissa())
	prod := ma * mb // 48 bits
	e := int(pa.Exp) + int(pb.Exp) - 127

	// prod in [2^46, 2^48): one conditional shift renormalizes.
	var frac uint32
	if prod >= 1<<47 {
		frac = uint32(prod >> 24)
		e++
	} else {
		frac = uint32(prod >> 23)
	}
	frac &= 0x7FFFFF
	switch {
	case e >= 255:
		return fpnum.Compose32(fpnum.Parts32{Sign: sign, Exp: 255}) // ±Inf
	case e <= 0:
		return fpnum.Compose32(fpnum.Parts32{Sign: sign}) // flush to zero
	}
	return fpnum.Compose32(fpnum.Parts32{Sign: sign, Exp: uint32(e), Frac: frac})
}

// MulTable is the small-format table-lookup multiplier: mantissas are
// truncated to ManBits bits and their products precomputed — feasible
// in-switch for narrow formats without any multiplier hardware.
type MulTable struct {
	manBits int
	table   []uint32 // (1+m_a)*(1+m_b) scaled, indexed by (ma<<manBits)|mb
}

// NewMulTable builds the product table for truncated mantissas of the given
// width (≤ 8 bits keeps the table at most 64 Ki entries — switch-SRAM
// scale).
func NewMulTable(manBits int) (*MulTable, error) {
	if manBits < 1 || manBits > 8 {
		return nil, fmt.Errorf("core: mul table mantissa width %d not in 1..8", manBits)
	}
	n := 1 << uint(manBits)
	t := &MulTable{manBits: manBits, table: make([]uint32, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ma := uint64(1<<uint(manBits) | i)
			mb := uint64(1<<uint(manBits) | j)
			t.table[i<<uint(manBits)|j] = uint32(ma * mb) // 2·manBits+2 bits
		}
	}
	return t, nil
}

// Mul multiplies two FP32 values with mantissas truncated to the table
// width. The relative error is bounded by ~2^(1-manBits).
func (t *MulTable) Mul(a, b float32) float32 {
	pa, pb := fpnum.Decompose32(a), fpnum.Decompose32(b)
	sign := pa.Sign ^ pb.Sign
	if pa.IsZero() || pb.IsZero() || pa.IsSubnormal() || pb.IsSubnormal() ||
		pa.IsNaN() || pb.IsNaN() || pa.IsInf() || pb.IsInf() {
		return MulExponentAdd(a, b) // delegate the special cases
	}
	mb := t.manBits
	ia := pa.Frac >> uint(23-mb)
	ib := pb.Frac >> uint(23-mb)
	prod := t.table[ia<<uint(mb)|ib] // in [2^2mb, 2^(2mb+2))
	e := int(pa.Exp) + int(pb.Exp) - 127
	var frac uint32
	if prod >= 1<<uint(2*mb+1) {
		frac = (prod - 1<<uint(2*mb+1)) << uint(23-2*mb-1)
		e++
	} else {
		frac = (prod - 1<<uint(2*mb)) << uint(23-2*mb)
	}
	switch {
	case e >= 255:
		return fpnum.Compose32(fpnum.Parts32{Sign: sign, Exp: 255})
	case e <= 0:
		return fpnum.Compose32(fpnum.Parts32{Sign: sign})
	}
	return fpnum.Compose32(fpnum.Parts32{Sign: sign, Exp: uint32(e), Frac: frac})
}

// Log2Table approximates log2 with a mantissa lookup (Appendix A:
// "a lookup table of fewer than 2000 entries with low error (<1%)").
type Log2Table struct {
	bits  int
	table []float32 // log2(1.m) at interval midpoints
}

// NewLog2Table builds a table indexed by the top `bits` mantissa bits;
// bits=10 yields 1024 entries, under the paper's 2000-entry budget.
func NewLog2Table(bits int) (*Log2Table, error) {
	if bits < 4 || bits > 11 {
		return nil, fmt.Errorf("core: log2 table bits %d not in 4..11", bits)
	}
	n := 1 << uint(bits)
	t := &Log2Table{bits: bits, table: make([]float32, n)}
	for i := 0; i < n; i++ {
		mid := 1 + (float64(i)+0.5)/float64(n)
		t.table[i] = float32(math.Log2(mid))
	}
	return t, nil
}

// Log2 approximates log2(x) for positive finite x: the integer exponent
// part comes straight from the FP32 exponent field; the fractional part is
// one table lookup.
func (t *Log2Table) Log2(x float32) float32 {
	p := fpnum.Decompose32(x)
	if p.Sign != 0 || p.IsZero() || p.IsNaN() || p.IsInf() || p.IsSubnormal() {
		return float32(math.Log2(float64(x))) // out of the in-switch domain
	}
	idx := p.Frac >> uint(23-t.bits)
	return float32(int(p.Exp)-127) + t.table[idx]
}

// SqrtTable approximates square roots with a lookup over the mantissa and
// exponent parity (Appendix A: "we suggest a lookup-table-based
// approximation").
type SqrtTable struct {
	bits  int
	table []float32 // sqrt(m) for m in [1,4), indexed by parity|mantissa
}

// NewSqrtTable builds the table with 2^(bits+1) entries (two exponent
// parities); bits=10 gives 2048 entries.
func NewSqrtTable(bits int) (*SqrtTable, error) {
	if bits < 4 || bits > 10 {
		return nil, fmt.Errorf("core: sqrt table bits %d not in 4..10", bits)
	}
	n := 1 << uint(bits)
	t := &SqrtTable{bits: bits, table: make([]float32, 2*n)}
	for parity := 0; parity < 2; parity++ {
		for i := 0; i < n; i++ {
			mid := (1 + (float64(i)+0.5)/float64(n)) * float64(int(1)<<uint(parity))
			t.table[parity*n+i] = float32(math.Sqrt(mid))
		}
	}
	return t, nil
}

// Sqrt approximates sqrt(x) for positive finite normal x.
func (t *SqrtTable) Sqrt(x float32) float32 {
	p := fpnum.Decompose32(x)
	if p.Sign != 0 || p.IsZero() || p.IsNaN() || p.IsInf() || p.IsSubnormal() {
		return float32(math.Sqrt(float64(x)))
	}
	e := int(p.Exp) - 127
	parity := e & 1
	if e < 0 {
		parity = -e & 1 // keep ((e - parity) / 2) exact for negatives
	}
	half := (e - parity) / 2
	idx := p.Frac >> uint(23-t.bits)
	return float32(math.Ldexp(float64(t.table[parity<<uint(t.bits)|int(idx)]), half))
}
