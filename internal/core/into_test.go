package core

import (
	"math"
	"reflect"
	"testing"

	"fpisa/internal/allocgate"
	"fpisa/internal/pisa"
)

// intoAgg is the operation set both aggregators share: the …Into byte form
// and the float32 host edge.
type intoAgg interface {
	AddInto(idx int, vals, out []byte) (bool, error)
	SetInto(idx int, vals, out []byte) (bool, error)
	ReadResetInto(idx int, out []byte) (bool, error)
	Add(idx int, vals []float32) ([]float32, error)
	ReadReset(idx int) ([]float32, error)
}

// intoBackend builds fresh aggregators of one kind with 3 modules and 16
// slots, and names the profile of their wire bytes.
type intoBackend struct {
	prof  NumericProfile
	build func() intoAgg
}

// intoBackends lists the compiled pipeline (PipelineAggregator) and the
// accumulator bank that serves (ProfileAggregator) under the default and
// the bf16 profile.
func intoBackends(t *testing.T) map[string]intoBackend {
	t.Helper()
	out := map[string]intoBackend{"pipeline": {DefaultProfile, func() intoAgg {
		pa, err := NewPipelineAggregator(DefaultFP32(ModeApprox), 3, 16, pisa.ExtendedArch())
		if err != nil {
			t.Fatal(err)
		}
		return pa
	}}}
	for name, prof := range map[string]NumericProfile{"accumulator-f32": DefaultProfile, "accumulator-bf16": {Format: FormatBF16}} {
		out[name] = intoBackend{prof, func() intoAgg {
			pa, err := NewProfileAggregator(prof, ModeApprox, 3, 16, pisa.ExtendedArch())
			if err != nil {
				t.Fatal(err)
			}
			return pa
		}}
	}
	return out
}

// The …Into operations are the one implementation; the float32 forms wrap
// them. Drive two replicas with the same operations, one through each
// form, and require the same responses — with the Into side writing into
// one out buffer reused for the whole run.
func TestIntoMatchesFreshResults(t *testing.T) {
	for name, b := range intoBackends(t) {
		fresh, into, p := b.build(), b.build(), b.prof
		out := make([]byte, p.ValueBytes()*3)
		for i := 0; i < 200; i++ {
			slot := i % 5
			vals := []float32{float32(i) * 0.5, -float32(i), float32(math.Ldexp(1, i%30))}[:1+i%3]
			var want []float32
			var errWant, errGot error
			if i%7 == 6 {
				want, errWant = fresh.ReadReset(slot)
				_, errGot = into.ReadResetInto(slot, out)
			} else {
				want, errWant = fresh.Add(slot, vals)
				_, errGot = into.AddInto(slot, p.AppendValues(nil, vals), out)
			}
			if errWant != nil || errGot != nil {
				t.Fatalf("%s op %d: %v / %v", name, i, errWant, errGot)
			}
			if got := p.values(out); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s op %d: into %v, fresh %v", name, i, got, want)
			}
		}
		if _, err := into.AddInto(16, p.AppendValues(nil, []float32{1}), out); err == nil {
			t.Errorf("%s: out-of-range slot accepted", name)
		}
		if _, err := fresh.Add(0, make([]float32, 4)); err == nil {
			t.Errorf("%s: too many values accepted", name)
		}
		if _, err := into.AddInto(0, make([]byte, p.ValueBytes()+1), out); err == nil {
			t.Errorf("%s: a partial value accepted", name)
		}
		if _, err := into.ReadResetInto(0, out[:len(out)-1]); err == nil {
			t.Errorf("%s: a short out accepted", name)
		}
	}
}

// A nil out discards the response but keeps the register side effect; on
// the pipeline every operation is a full pass whose response is dropped.
func TestIntoNilResultStillOperates(t *testing.T) {
	for name, b := range intoBackends(t) {
		pa, p := b.build(), b.prof
		pipe, _ := pa.(*PipelineAggregator)
		if _, err := pa.AddInto(2, p.AppendValues(nil, []float32{9, 9, 9}), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := pa.SetInto(2, p.AppendValues(nil, []float32{1.5, 2, 3}), nil); err != nil { // overwrites the 9s
			t.Fatal(err)
		}
		r, err := pa.Add(2, []float32{0.5, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		if r[0] != 2 || r[2] != 3 {
			t.Errorf("%s: after a discarded add and set: %v", name, r)
		}
		if pipe != nil {
			if c := reg(t, pipe, "cnt_reg", 2); c != 2 {
				t.Errorf("%s: count %d after a discarded add and set, want 2", name, c)
			}
		}
		if _, err := pa.ReadResetInto(2, nil); err != nil {
			t.Fatal(err)
		}
		if r, _ = pa.ReadReset(2); r[0] != 0 {
			t.Errorf("%s: after a discarded read-reset: %v", name, r)
		}
		if pipe != nil {
			if c := reg(t, pipe, "cnt_reg", 2); c != 0 {
				t.Errorf("%s: count %d after a discarded read-reset", name, c)
			}
			if c := pipe.Switch().Counters(); c.Received != 5 || c.Emitted != 5 {
				t.Errorf("%s: counters %+v, want 5 passes, each emitted", name, c)
			}
		}
	}
}

// A float32 result must not alias aggregator or pipeline scratch: it stays
// put while the aggregator keeps working.
func TestFreshResultsSurviveLaterOperations(t *testing.T) {
	for name, b := range intoBackends(t) {
		pa := b.build()
		kept, err := pa.Add(1, []float32{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := pa.Add(i%4, []float32{100, 100, 100}); err != nil {
				t.Fatal(err)
			}
		}
		if want := []float32{1, 2, 3}; !reflect.DeepEqual(kept, want) {
			t.Errorf("%s: kept result changed to %v", name, kept)
		}
	}
}

func TestIntoAllocatesNothing(t *testing.T) {
	for name, b := range intoBackends(t) {
		pa, p := b.build(), b.prof
		out := make([]byte, p.ValueBytes()*3)
		vals := p.AppendValues(nil, []float32{1, -2, 0.5})
		n := 0
		allocgate.AtMost(t, name+" AddInto", 0, func() {
			if _, err := pa.AddInto(n%16, vals, out); err != nil {
				t.Fatal(err)
			}
			n++
		})
		allocgate.AtMost(t, name+" SetInto", 0, func() {
			if _, err := pa.SetInto(n%16, vals, out); err != nil {
				t.Fatal(err)
			}
			n++
		})
		allocgate.AtMost(t, name+" ReadResetInto", 0, func() {
			if _, err := pa.ReadResetInto(n%16, out); err != nil {
				t.Fatal(err)
			}
			n++
		})
		// A nil out drops the response: on the pipeline backend the pass
		// still runs in full on the switch's scratch.
		allocgate.AtMost(t, name+" discarding", 0, func() {
			if _, err := pa.SetInto(n%16, vals, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := pa.AddInto(n%16, vals, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := pa.ReadResetInto(n%16, nil); err != nil {
				t.Fatal(err)
			}
			n++
		})
	}
}

// TestValueCodecAllocatesNothing: AppendValues into a buffer with room for
// the values and GetValues into a slice of their length allocate nothing,
// in every format.
func TestValueCodecAllocatesNothing(t *testing.T) {
	vals := []float32{1, -2, 0.5, 3e-5, 65504, -0.1, 7, 8}
	for _, p := range []NumericProfile{DefaultProfile, {Format: FormatF16, Guard: 1, Rounding: RoundingRNE}, {Format: FormatBF16}} {
		buf := make([]byte, 0, p.ValueBytes()*len(vals))
		dst := make([]float32, len(vals))
		allocgate.AtMost(t, p.String()+" AppendValues", 0, func() { buf = p.AppendValues(buf[:0], vals) })
		allocgate.AtMost(t, p.String()+" GetValues", 0, func() { p.GetValues(dst, buf) })
	}
}

// BenchmarkAggregatorPaths times one AddInto on the compiled pipeline
// (PipelineAggregator) against the accumulator bank that serves
// (ProfileAggregator), FPISA-A at one module on the base and the extended
// architecture and at three on the extended one. The bank runs emitting (an
// out) and absorbing (a nil out), and bf16 at the same module count too;
// the pipeline runs emitting only, since a nil out there runs the same full
// pass and only drops its response.
// Slots cycle over 16 and values alternate sign per pass, so sums stay
// bounded however long it runs.
func BenchmarkAggregatorPaths(b *testing.B) {
	const slots = 16
	for _, shape := range []struct {
		name    string
		arch    pisa.Arch
		modules int
	}{
		{"base-m1", pisa.BaseArch(), 1},
		{"ext-m1", pisa.ExtendedArch(), 1},
		{"ext-m3", pisa.ExtendedArch(), 3},
	} {
		pipe, err := NewPipelineAggregator(DefaultFP32(ModeApprox), shape.modules, slots, shape.arch)
		if err != nil {
			b.Fatal(err)
		}
		type backend struct {
			name string
			prof NumericProfile
			agg  intoAgg
		}
		backends := []backend{{"pipeline", DefaultProfile, pipe}}
		for _, prof := range []NumericProfile{DefaultProfile, {Format: FormatBF16}} {
			pa, err := NewProfileAggregator(prof, ModeApprox, shape.modules, slots, shape.arch)
			if err != nil {
				b.Fatal(err)
			}
			backends = append(backends, backend{"accumulator-" + prof.Format.String(), prof, pa})
		}
		for _, be := range backends {
			vals := make([]float32, shape.modules)
			for k := range vals {
				vals[k] = float32(k+1) / 8
			}
			pos := be.prof.AppendValues(nil, vals)
			for k := range vals {
				vals[k] = -vals[k]
			}
			neg := be.prof.AppendValues(nil, vals)
			outs := [][]byte{make([]byte, len(pos)), nil}
			if be.name == "pipeline" {
				outs = outs[:1]
			}
			for _, out := range outs {
				name := shape.name + "/" + be.name + "/emit"
				if out == nil {
					name = shape.name + "/" + be.name + "/absorb"
				}
				b.Run(name, func(b *testing.B) {
					for n := 0; n < b.N; n++ {
						in := pos
						if n/slots%2 == 1 {
							in = neg
						}
						if _, err := be.agg.AddInto(n%slots, in, out); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
