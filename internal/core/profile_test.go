package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fpisa/internal/pisa"
)

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		p    NumericProfile
		ok   bool
	}{
		{"default", NumericProfile{}, true},
		{"f32-rne-g2", NumericProfile{Format: FormatF32, Guard: 2, Rounding: RoundingRNE}, true},
		{"bf16-trunc", NumericProfile{Format: FormatBF16}, true},
		{"f16-rne-g1", NumericProfile{Format: FormatF16, Guard: 1, Rounding: RoundingRNE}, true},
		// f32 explicit mantissa is 24 bits; 7 guard bits leave headroom 0.
		{"guard-zeroes-headroom", NumericProfile{Format: FormatF32, Guard: 7}, false},
		{"guard-overflows-register", NumericProfile{Format: FormatBF16, Guard: 40}, false},
		{"rne-without-guard", NumericProfile{Format: FormatF32, Rounding: RoundingRNE}, false},
		{"unknown-format", NumericProfile{Format: 9}, false},
		{"unknown-rounding", NumericProfile{Rounding: 7}, false},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestProfileHeadroom(t *testing.T) {
	// §3.3: FP32 in 32-bit registers has 7 spare bits; guard bits eat them
	// one-for-one. BF16's 8-bit explicit mantissa leaves 23.
	if got := (NumericProfile{}).Headroom(); got != 7 {
		t.Fatalf("default profile headroom = %d, want 7", got)
	}
	if got := (NumericProfile{Guard: 4}).Headroom(); got != 3 {
		t.Fatalf("f32/g4 headroom = %d, want 3", got)
	}
	if got := (NumericProfile{Format: FormatBF16}).Headroom(); got != 23 {
		t.Fatalf("bf16 headroom = %d, want 23", got)
	}
}

func TestProfileStringParseRoundTrip(t *testing.T) {
	profiles := []NumericProfile{
		{},
		{Format: FormatF32, Guard: 2, Rounding: RoundingRNE},
		{Format: FormatBF16},
		{Format: FormatBF16, Guard: 3, Rounding: RoundingRNE},
		{Format: FormatF16, Guard: 1, Rounding: RoundingRNE},
	}
	for _, p := range profiles {
		got, err := ParseProfile(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProfile(%q) = %+v, %v; want %+v", p.String(), got, err, p)
		}
	}
	// Spellings beyond the canonical one.
	if p, err := ParseProfile("FP32/g2/RNE"); err != nil || (p != NumericProfile{Guard: 2, Rounding: RoundingRNE}) {
		t.Errorf("ParseProfile(FP32/g2/RNE) = %+v, %v", p, err)
	}
	if p, err := ParseProfile("bf16"); err != nil || (p != NumericProfile{Format: FormatBF16}) {
		t.Errorf("ParseProfile(bf16) = %+v, %v", p, err)
	}
	for _, bad := range []string{"", "f8", "f32/banana", "f32/g", "f32/g-1", "f32/rne", "f32/g9"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
}

func TestProfileValueRoundTrip(t *testing.T) {
	// Every representable wire value must survive decode→encode exactly;
	// that identity is what makes host-side reference arithmetic bit-exact.
	profiles := []NumericProfile{
		{},
		{Format: FormatF16},
		{Format: FormatF16, Guard: 1, Rounding: RoundingRNE},
		{Format: FormatBF16},
		{Format: FormatBF16, Guard: 2, Rounding: RoundingRNE},
	}
	for _, p := range profiles {
		if p.Format == FormatF32 {
			for _, v := range []float32{0, 1, -2.5, 3.14159e-7, 6.5e12} {
				if got := p.DecodeValue(p.EncodeValue(v)); got != v {
					t.Errorf("%v: f32 round trip %v -> %v", p, v, got)
				}
			}
			continue
		}
		for u := 0; u <= 0xFFFF; u++ {
			f := p.DecodeValue(uint32(u))
			if f != f { // NaN: re-encode must stay NaN, payload may shrink
				back := p.DecodeValue(p.EncodeValue(f))
				if back == back {
					t.Fatalf("%v: NaN %#04x re-encoded to non-NaN", p, u)
				}
				continue
			}
			if got := p.EncodeValue(f); got != uint32(u) {
				t.Fatalf("%v: wire %#04x -> %v -> %#04x", p, u, f, got)
			}
		}
	}
}

func TestProfileWirePutGet(t *testing.T) {
	buf := make([]byte, 4)
	p16 := NumericProfile{Format: FormatBF16}
	if p16.ValueBytes() != 2 {
		t.Fatalf("bf16 ValueBytes = %d", p16.ValueBytes())
	}
	p16.PutValue(buf, 1.5)
	if got := p16.GetValue(buf); got != 1.5 {
		t.Fatalf("bf16 wire round trip: %v", got)
	}
	p32 := NumericProfile{}
	if p32.ValueBytes() != 4 {
		t.Fatalf("f32 ValueBytes = %d", p32.ValueBytes())
	}
	p32.PutValue(buf, -0.3)
	if got := p32.GetValue(buf); got != -0.3 {
		t.Fatalf("f32 wire round trip: %v", got)
	}
	// ValueBytes answers without building the format: the width its
	// descriptor gives, for every format octet, unknown ones included.
	for f := range 256 {
		p := NumericProfile{Format: ProfileFormat(f)}
		if got, want := p.ValueBytes(), p.Format.Format().Bytes(); got != want {
			t.Errorf("format %d: ValueBytes %d, want %d", f, got, want)
		}
	}
}

// TestValueCodecMatchesPerValue holds the region codec to the per-value
// conversions, encoded here with encoding/binary: AppendValues behind a
// prefix it must keep writes each value's EncodeValue bits big-endian, and
// GetValues widens each through DecodeValue — for every format and
// rounding, on ±0, subnormals, ±Inf, NaN payloads and random bit patterns.
func TestValueCodecMatchesPerValue(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -2.5, 1e-40, -3e-45, 6e-8, 65520,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), math.Float32frombits(0xff800123)}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	prefix := []byte{0xde, 0xad, 0xbe}
	for f := FormatF32; f < formatCount; f++ {
		for r := RoundingTruncate; r < roundingCount; r++ {
			p := NumericProfile{Format: f, Rounding: r}
			w := p.ValueBytes()
			want := append([]byte(nil), prefix...)
			for _, v := range vals {
				if w == 2 {
					want = binary.BigEndian.AppendUint16(want, uint16(p.EncodeValue(v)))
				} else {
					want = binary.BigEndian.AppendUint32(want, p.EncodeValue(v))
				}
			}
			got := p.AppendValues(append([]byte(nil), prefix...), vals)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: AppendValues % x, want % x", p, got, want)
			}
			back := make([]float32, len(vals))
			p.GetValues(back, got[len(prefix):])
			for i := range back {
				at := got[len(prefix)+w*i:]
				var bits uint32
				if w == 2 {
					bits = uint32(binary.BigEndian.Uint16(at))
				} else {
					bits = binary.BigEndian.Uint32(at)
				}
				if g, e := math.Float32bits(back[i]), math.Float32bits(p.DecodeValue(bits)); g != e {
					t.Fatalf("%v: GetValues value %d = %#x, want %#x", p, i, g, e)
				}
			}
		}
	}
}

// TestProfileAggregatorDefaultMatchesPipeline holds the default profile's
// accumulator bank to the compiled pipeline, bit for bit, on the float32
// host edge over normal-range values (TestPipelineEquivalence covers the
// byte form over the whole input space).
func TestProfileAggregatorDefaultMatchesPipeline(t *testing.T) {
	pa, err := NewProfileAggregator(DefaultProfile, ModeApprox, 2, 4, pisa.ExtendedArch())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPipelineAggregator(DefaultFP32(ModeApprox), 2, 4, pisa.ExtendedArch())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 64; n++ {
		idx := rng.Intn(4)
		vals := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		got, err1 := pa.Add(idx, vals)
		want, err2 := ref.Add(idx, vals)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for k := range want {
			if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
				t.Fatalf("add %d slot %d module %d: %v != %v", n, idx, k, got[k], want[k])
			}
		}
	}
	for idx := 0; idx < 4; idx++ {
		got, _ := pa.ReadReset(idx)
		want, _ := ref.ReadReset(idx)
		for k := range want {
			if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
				t.Fatalf("readreset slot %d: %v != %v", idx, got, want)
			}
		}
	}
}

// TestProfileAggregatorModelMatchesAccumulator pins every valid profile
// (f32/f16/bf16 × trunc/rne × guard bits 0, 1 and headroom−1), in both
// modes, against a hand-driven refAccumulator (the per-value reference)
// built from the same Config and fed the same narrowed wire bits: the sums,
// every module's sticky overflow flag, the one overflow bit the byte form
// reports and the Stats. A slot version's first add must also read back
// exactly its own narrowed input, which holds the Accumulator itself to the
// profile's format and guard bits.
func TestProfileAggregatorModelMatchesAccumulator(t *testing.T) {
	for f := FormatF32; f < formatCount; f++ {
		for r := RoundingTruncate; r < roundingCount; r++ {
			h := NumericProfile{Format: f}.Headroom()
			for _, g := range []uint8{0, 1, uint8(h - 1)} {
				prof := NumericProfile{Format: f, Guard: g, Rounding: r}
				if prof.Validate() != nil {
					continue // RNE without a guard bit
				}
				for _, mode := range []Mode{ModeApprox, ModeFull} {
					cfg := Config{Profile: prof, Mode: mode}
					t.Run(fmt.Sprintf("%v_%v_g%d_%v", f, r, g, mode), func(t *testing.T) {
						checkProfileAggregator(t, cfg)
					})
				}
			}
		}
	}
}

func checkProfileAggregator(t *testing.T, cfg Config) {
	const modules, slots = 3, 4
	prof := cfg.Profile
	pa, err := NewProfileAggregator(prof, cfg.Mode, modules, slots, pisa.ExtendedArch())
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefAccumulator(cfg, modules*slots)
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 200; n++ {
		idx := rng.Intn(slots)
		vals := make([]float32, modules)
		for k := range vals {
			vals[k] = float32(rng.NormFloat64()) * float32(math.Pow(2, float64(rng.Intn(8)-4)))
		}
		out := make([]byte, prof.ValueBytes()*modules)
		var ovf bool
		var res []float32
		first := n%5 == 4
		switch {
		case first:
			// A slot version's first add: the model resets, then adds.
			for k := range vals {
				ref.Reset(idx*modules + k)
			}
			ovf, err = pa.SetInto(idx, prof.AppendValues(nil, vals), out)
			res = prof.values(out)
		case n%2 == 0:
			ovf, err = pa.AddInto(idx, prof.AppendValues(nil, vals), out)
			res = prof.values(out)
		default:
			res, err = pa.Add(idx, vals)
			ovf = anyOverflowed(pa, idx)
		}
		if err != nil {
			t.Fatal(err)
		}
		wantOvf := false
		for k, v := range vals {
			wire := prof.EncodeValue(v)
			ref.AddBits(idx*modules+k, wire)
			want := prof.DecodeValue(ref.ReadBits(idx*modules + k))
			if math.Float32bits(res[k]) != math.Float32bits(want) {
				t.Fatalf("add %d slot %d module %d: got %v want %v", n, idx, k, res[k], want)
			}
			if got := overflowed(pa, idx, k); got != ref.Overflowed(idx*modules+k) {
				t.Fatalf("add %d slot %d module %d: overflow %v, model %v", n, idx, k, got, ref.Overflowed(idx*modules+k))
			}
			wantOvf = wantOvf || ref.Overflowed(idx*modules+k)
			if exact := prof.DecodeValue(wire); first && math.Float32bits(want) != math.Float32bits(exact) {
				t.Fatalf("add %d: a fresh slot holding only %v reads %v", n, exact, want)
			}
		}
		if ovf != wantOvf {
			t.Fatalf("add %d slot %d: overflow bit %v, model %v", n, idx, ovf, wantOvf)
		}
		if st := pa.acc.Stats(); st != ref.stats {
			t.Fatalf("add %d: stats %+v, model %+v", n, st, ref.stats)
		}
	}
	// ReadReset drains the sums and the slot's state: every module's
	// register pair and flags.
	if slotClear(pa, 1) {
		t.Fatal("expected a nonzero slot state before reset")
	}
	if _, err := pa.ReadReset(1); err != nil {
		t.Fatal(err)
	}
	res2, _ := pa.ReadReset(1)
	if !slotClear(pa, 1) {
		t.Fatal("slot state survived the reset")
	}
	for _, v := range res2 {
		if v != 0 {
			t.Fatalf("values %v after reset", res2)
		}
	}
}

// overflowed reads module k's sticky overflow flag of slot idx from the
// bank's Accumulator.
func overflowed(pa *ProfileAggregator, idx, k int) bool {
	return pa.acc.Overflowed(idx*pa.modules + k)
}

// anyOverflowed is the OR of a slot's per-module overflow flags: the bit
// the wire carries.
func anyOverflowed(pa *ProfileAggregator, idx int) bool {
	for k := 0; k < pa.modules; k++ {
		if overflowed(pa, idx, k) {
			return true
		}
	}
	return false
}

// slotClear reports whether a slot holds nothing: zero registers and flags
// in every module.
func slotClear(pa *ProfileAggregator, idx int) bool {
	for k := 0; k < pa.modules; k++ {
		i := idx*pa.modules + k
		if e, m := pa.acc.RawState(i); e != 0 || m != 0 || pa.acc.flags[i] != 0 {
			return false
		}
	}
	return true
}

func TestProfileAggregatorReplicateIndependence(t *testing.T) {
	for _, prof := range []NumericProfile{DefaultProfile, {Format: FormatBF16}} {
		proto, err := NewProfileAggregator(prof, ModeApprox, 1, 2, pisa.BaseArch())
		if err != nil {
			t.Fatal(err)
		}
		a, b := proto.Replicate(), proto.Replicate()
		if _, err := a.Add(0, []float32{1}); err != nil {
			t.Fatal(err)
		}
		fresh := slotClear(b, 0)
		rb, err := b.ReadReset(0)
		if err != nil {
			t.Fatal(err)
		}
		if rb[0] != 0 || !fresh {
			t.Fatalf("%v: replica b saw replica a's state: %v", prof, rb)
		}
		if slotClear(a, 0) {
			t.Fatalf("%v: replica a's slot is clear after an add", prof)
		}
		ra, _ := a.ReadReset(0)
		if ra[0] != 1 {
			t.Fatalf("%v: replica a lost its state: %+v", prof, ra)
		}
	}
}

// medianProfileError drives one profile over deterministic workloads and
// returns the median relative error of the aggregated sums against an exact
// float64 reference over the float32 inputs.
func medianProfileError(t *testing.T, prof NumericProfile, seed int64) float64 {
	t.Helper()
	const slots, addsPerSlot = 48, 192
	pa, err := NewProfileAggregator(prof, ModeFull, 1, slots, pisa.ExtendedArch())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	errs := make([]float64, 0, slots)
	for s := 0; s < slots; s++ {
		ref := 0.0
		for n := 0; n < addsPerSlot; n++ {
			// Gradient-like values with spread exponents, forcing the
			// alignment shifts where guard bits matter (Appendix A.1).
			v := float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(10)-5)))
			ref += float64(v)
			if _, err := pa.Add(s, []float32{v}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := pa.ReadReset(s)
		if err != nil {
			t.Fatal(err)
		}
		denom := math.Abs(ref)
		if denom < 1e-12 {
			denom = 1e-12
		}
		errs = append(errs, math.Abs(float64(res[0])-ref)/denom)
	}
	sort.Float64s(errs)
	return errs[len(errs)/2]
}

// TestGuardBitsBeatTruncation is the promoted BenchmarkAblationGuardBits: a
// tier-1 assertion that for every supported format, the RNE + guard-bits
// profile aggregates strictly closer to the exact float64 reference than the
// plain truncating profile (Appendix A.1's ablation).
func TestGuardBitsBeatTruncation(t *testing.T) {
	cases := []struct {
		name       string
		trunc, rne NumericProfile
	}{
		{
			"f32",
			NumericProfile{Format: FormatF32},
			NumericProfile{Format: FormatF32, Guard: 4, Rounding: RoundingRNE},
		},
		{
			"f16",
			NumericProfile{Format: FormatF16},
			NumericProfile{Format: FormatF16, Guard: 4, Rounding: RoundingRNE},
		},
		{
			"bf16",
			NumericProfile{Format: FormatBF16},
			NumericProfile{Format: FormatBF16, Guard: 4, Rounding: RoundingRNE},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Same seed: both profiles see identical input streams.
			errTrunc := medianProfileError(t, tc.trunc, 1234)
			errRNE := medianProfileError(t, tc.rne, 1234)
			if errRNE >= errTrunc {
				t.Fatalf("RNE+guard median error %.3e not better than truncation %.3e",
					errRNE, errTrunc)
			}
		})
	}
}
