package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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
// every admitted profile × mode. On the model path the out bytes and the
// overflow bit must equal, bit for bit, an Accumulator fed the same bits by
// AddBits and read by ReadBits/Overflowed, encoded here with
// encoding/binary. The default profile runs the compiled pipeline, which
// is held instead to its own float32 wrapper on the same (finite) inputs.
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
	// One prototype per configuration, compiled once: every input runs on
	// fresh replicas of it.
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
			if proto.pipe != nil {
				checkPipelineWireBits(t, proto, data)
			} else {
				checkModelWireBits(t, proto, data)
			}
		}
	})
}

func checkModelWireBits(t *testing.T, proto *ProfileAggregator, data []byte) {
	pa := proto.Replicate()
	cfg := pa.acc.Config()
	p, mode := cfg.Profile, cfg.Mode
	w := p.ValueBytes()
	ref := MustNewAccumulator(cfg, wireBitsModules*wireBitsSlots)
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
			if err := ref.AddBits(base+k, bits(o.vals[k*w:])); err != nil {
				t.Fatal(err)
			}
		}
		wantOvf := false
		for k := 0; k < wireBitsModules; k++ {
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
		if o.absorb {
			if ovf {
				t.Fatalf("%v/%v step %d: a nil out reported overflow", p, mode, step)
			}
			continue
		}
		if !bytes.Equal(got, want) || ovf != wantOvf {
			t.Fatalf("%v/%v step %d (op %d slot %d vals %x): out %x ovf %v, Accumulator %x ovf %v",
				p, mode, step, o.kind, o.slot, o.vals, got, ovf, want, wantOvf)
		}
	}
}

// checkPipelineWireBits runs the default profile's compiled pipeline twice
// over the same operations: once through the byte form, once through the
// float32 wrapper on a replica, with every non-finite input made finite
// (its top exponent bit cleared) first.
func checkPipelineWireBits(t *testing.T, proto *ProfileAggregator, data []byte) {
	pa, twin := proto.Replicate(), proto.Replicate()
	mode := pa.pipe.lay.Mode
	got := make([]byte, 4*wireBitsModules)
	for step, o := range decodeWireBitsOps(data, 4) {
		host := make([]float32, len(o.vals)/4)
		for k := range host {
			v := binary.BigEndian.Uint32(o.vals[4*k:])
			if v>>23&0xff == 0xff {
				v &^= 1 << 30
				binary.BigEndian.PutUint32(o.vals[4*k:], v)
			}
			host[k] = math.Float32frombits(v)
		}
		var out []byte
		if !o.absorb {
			out = got
		}
		// The overflow bit is the OR of the slot's ovf_reg_k registers after
		// an add, before a read-reset clears them.
		ovfRegs := func() (any bool) {
			for k := 0; k < wireBitsModules; k++ {
				any = any || reg(t, twin.pipe, fmt.Sprintf("ovf_reg_%d", k), o.slot) != 0
			}
			return any
		}
		var ovf, wantOvf bool
		var want []float32
		var err, errTwin error
		switch o.kind {
		case 0:
			ovf, err = pa.SetInto(o.slot, o.vals, out)
			if _, errTwin = twin.ReadReset(o.slot); errTwin == nil {
				want, errTwin = twin.Add(o.slot, host)
			}
			wantOvf = ovfRegs()
		case 3:
			wantOvf = ovfRegs()
			ovf, err = pa.ReadResetInto(o.slot, out)
			want, errTwin = twin.ReadReset(o.slot)
		default:
			ovf, err = pa.AddInto(o.slot, o.vals, out)
			want, errTwin = twin.Add(o.slot, host)
			wantOvf = ovfRegs()
		}
		if err != nil || errTwin != nil {
			t.Fatalf("%v step %d: %v / %v", mode, step, err, errTwin)
		}
		if o.absorb {
			if ovf {
				t.Fatalf("%v step %d: a nil out reported overflow", mode, step)
			}
			continue
		}
		for k := 0; k < wireBitsModules; k++ {
			if math.Float32bits(want[k]) != binary.BigEndian.Uint32(got[4*k:]) {
				t.Fatalf("%v step %d (op %d slot %d vals %x): out %x, float wrapper %v",
					mode, step, o.kind, o.slot, o.vals, got, want)
			}
		}
		if ovf != wantOvf {
			t.Fatalf("%v step %d: overflow bit %v, registers say %v", mode, step, ovf, wantOvf)
		}
	}
}
