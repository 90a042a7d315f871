package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fpisa/internal/pisa"
)

const wireBitsModules, wireBitsSlots = 3, 4

// wireBitsConfigs lists every admitted profile — each format and rounding
// mode with every guard-bit count Validate accepts — in both modes.
func wireBitsConfigs() (cfgs []Config) {
	for f := FormatF32; f < formatCount; f++ {
		for r := RoundingTruncate; r < roundingCount; r++ {
			for g := 0; g < 32; g++ {
				p := NumericProfile{Format: f, Guard: uint8(g), Rounding: r}
				if p.Validate() != nil {
					continue
				}
				for _, mode := range []Mode{ModeApprox, ModeFull} {
					cfgs = append(cfgs, Config{Profile: p, Mode: mode})
				}
			}
		}
	}
	return cfgs
}

// wireBitsOp is one decoded operation: the slot, what to run, whether to
// pass a nil out, and the ADD's value region.
type wireBitsOp struct {
	slot   int
	kind   byte // 0 set, 1 and 2 add, 3 read-reset
	absorb bool
	vals   []byte
}

// decodeWireBitsOps reads an operation stream for values w bytes wide: an
// op octet, then — for a set or an add — 1..modules values of raw wire
// bits, big-endian as the wire carries them. A short stream zero-fills.
func decodeWireBitsOps(data []byte, w int) (ops []wireBitsOp) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	for pos < len(data) {
		op := next()
		o := wireBitsOp{slot: int(op) % wireBitsSlots, kind: (op >> 2) % 4, absorb: op&0x10 != 0}
		if o.kind != 3 {
			o.vals = make([]byte, w*(1+int(op>>5)%wireBitsModules))
			for i := range o.vals {
				o.vals[i] = next()
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzAggregatorWireBits drives ProfileAggregator's byte form with
// arbitrary wire bit patterns — ±0, subnormals, ±Inf, NaN payloads — under
// every admitted profile × mode, the default one included. The out bytes,
// the overflow bit and the Stats must equal, bit for bit, a refAccumulator
// (the per-value reference, which shares no code with the kernel) fed the
// same bits, encoded here with encoding/binary.
// FuzzPipelineMatchesAccumulator holds the compiled pipeline to the default
// profile's bank.
func FuzzAggregatorWireBits(f *testing.F) {
	f.Add([]byte{0x60, 0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00})             // ±0, a subnormal
	f.Add([]byte{0x44, 0x7f, 0x80, 0x00, 0x00, 0x24, 0xff, 0xc0, 0x12, 0x34, 0x0c, 0x3f, 0x80, 0, 0})       // +Inf, a NaN payload
	f.Add([]byte{0x44, 0x7f, 0xff, 0x7c, 0x00, 0x04, 0x7c, 0x01, 0xfc, 0x00, 0x0f, 0x21, 0x00, 0x00, 0x01}) // 16-bit Inf/NaN patterns
	// Large equal-exponent values on modules 0 and 1, again and again: the
	// high-guard profiles overflow module 1's register.
	grow := []byte{}
	for i := 0; i < 12; i++ {
		grow = append(grow, 0x24, 0x00, 0x00, 0x7f, 0x7f, 0x7f, 0x7f)
	}
	f.Add(append(grow, 0x0f))
	// FPISA-A's left shift: module 1 holds 1.99…, then takes a full
	// mantissa 2^7 larger — the shifted sum overflows the f32 register.
	f.Add([]byte{0x24, 0, 0, 0, 0, 0x3f, 0xff, 0xff, 0xff, 0x24, 0, 0, 0, 0, 0x43, 0x7f, 0xff, 0xff})
	// One prototype per configuration: every input runs on fresh replicas
	// of it.
	var protos []*ProfileAggregator
	for _, cfg := range wireBitsConfigs() {
		pa, err := NewProfileAggregator(cfg.Profile, cfg.Mode, wireBitsModules, wireBitsSlots, pisa.ExtendedArch())
		if err != nil {
			f.Fatal(err)
		}
		protos = append(protos, pa)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		for _, proto := range protos {
			checkModelWireBits(t, proto, data)
		}
	})
}

func checkModelWireBits(t *testing.T, proto *ProfileAggregator, data []byte) {
	pa := proto.Replicate()
	cfg := pa.acc.Config()
	p, mode := cfg.Profile, cfg.Mode
	w := p.ValueBytes()
	ref := newRefAccumulator(cfg, wireBitsModules*wireBitsSlots)
	bits := func(b []byte) uint32 {
		if w == 2 {
			return uint32(binary.BigEndian.Uint16(b))
		}
		return binary.BigEndian.Uint32(b)
	}
	got, want := make([]byte, w*wireBitsModules), make([]byte, w*wireBitsModules)
	for step, o := range decodeWireBitsOps(data, w) {
		base := o.slot * wireBitsModules
		var out []byte
		if !o.absorb {
			out = got
		}
		var ovf bool
		var err error
		switch o.kind {
		case 0:
			ovf, err = pa.SetInto(o.slot, o.vals, out)
			for k := 0; k < wireBitsModules; k++ {
				ref.Reset(base + k)
			}
		case 3:
			ovf, err = pa.ReadResetInto(o.slot, out)
		default:
			ovf, err = pa.AddInto(o.slot, o.vals, out)
		}
		if err != nil {
			t.Fatalf("%v/%v step %d: %v", p, mode, step, err)
		}
		for k := 0; k*w < len(o.vals); k++ {
			ref.AddBits(base+k, bits(o.vals[k*w:]))
		}
		// The reference reads a slot exactly when the operation has an
		// out, so the read-out counters in Stats stay comparable.
		wantOvf := false
		for k := 0; k < wireBitsModules && !o.absorb; k++ {
			v := ref.ReadBits(base + k)
			if w == 2 {
				binary.BigEndian.PutUint16(want[k*w:], uint16(v))
			} else {
				binary.BigEndian.PutUint32(want[k*w:], v)
			}
			wantOvf = wantOvf || ref.Overflowed(base+k)
		}
		if o.kind == 3 {
			for k := 0; k < wireBitsModules; k++ {
				ref.Reset(base + k)
			}
		}
		if st := pa.acc.Stats(); st != ref.stats {
			t.Fatalf("%v/%v step %d (op %d slot %d vals %x): stats %+v, reference %+v",
				p, mode, step, o.kind, o.slot, o.vals, st, ref.stats)
		}
		if o.absorb {
			if ovf {
				t.Fatalf("%v/%v step %d: a nil out reported overflow", p, mode, step)
			}
			continue
		}
		if !bytes.Equal(got, want) || ovf != wantOvf {
			t.Fatalf("%v/%v step %d (op %d slot %d vals %x): out %x ovf %v, reference %x ovf %v",
				p, mode, step, o.kind, o.slot, o.vals, got, ovf, want, wantOvf)
		}
	}
}
