package core

import (
	"math"
	"reflect"
	"testing"

	"fpisa/internal/allocgate"
	"fpisa/internal/pisa"
)

// intoBackends builds one aggregator per backend: the compiled pipeline
// (default profile) and the accumulator model (bf16).
func intoBackends(t *testing.T) map[string]*ProfileAggregator {
	t.Helper()
	out := make(map[string]*ProfileAggregator)
	for name, prof := range map[string]NumericProfile{
		"pipeline":    DefaultProfile,
		"accumulator": {Format: FormatBF16},
	} {
		pa, err := NewProfileAggregator(prof, ModeApprox, 3, 16, pisa.ExtendedArch())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = pa
	}
	return out
}

// The …Into operations are the one implementation; the float32 forms wrap
// them. Drive two replicas with the same operations, one through each
// form, and require the same responses — with the Into side writing into
// one out buffer reused for the whole run.
func TestIntoMatchesFreshResults(t *testing.T) {
	for name, fresh := range intoBackends(t) {
		into := fresh.Replicate()
		p := fresh.Profile()
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
// the pipeline the pass is absorbed, emitting nothing.
func TestIntoNilResultStillOperates(t *testing.T) {
	for name, pa := range intoBackends(t) {
		p := pa.Profile()
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
		if pa.pipe != nil {
			if c := reg(t, pa.pipe, "cnt_reg", 2); c != 2 {
				t.Errorf("%s: count %d after a discarded add and set, want 2", name, c)
			}
		}
		if _, err := pa.ReadResetInto(2, nil); err != nil {
			t.Fatal(err)
		}
		if r, _ = pa.ReadReset(2); r[0] != 0 {
			t.Errorf("%s: after a discarded read-reset: %v", name, r)
		}
		if pa.pipe != nil {
			if c := reg(t, pa.pipe, "cnt_reg", 2); c != 0 {
				t.Errorf("%s: count %d after a discarded read-reset", name, c)
			}
			if c := pa.pipe.Switch().Counters(); c.Received != 5 || c.Emitted != 2 {
				t.Errorf("%s: counters %+v, want 5 passes of which the 2 with an out emitted", name, c)
			}
		}
	}
}

// A float32 result must not alias aggregator or pipeline scratch: it stays
// put while the aggregator keeps working.
func TestFreshResultsSurviveLaterOperations(t *testing.T) {
	for name, pa := range intoBackends(t) {
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
	for name, pa := range intoBackends(t) {
		p := pa.Profile()
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
		// On the pipeline backend these are PipelineAggregator's …Into with
		// a nil out: absorbed passes (pisa.Switch.Absorb).
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
