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

// The …Into operations are the one implementation; the allocating forms
// wrap them. Drive two replicas with the same operations, one through each
// form, and require the same responses — with the Into side decoding into
// one Result reused for the whole run.
func TestIntoMatchesFreshResults(t *testing.T) {
	for name, fresh := range intoBackends(t) {
		into := fresh.Replicate()
		var res Result
		for i := 0; i < 200; i++ {
			slot := i % 5
			vals := []float32{float32(i) * 0.5, -float32(i), float32(math.Ldexp(1, i%30))}[:1+i%3]
			var want Result
			var errWant, errGot error
			if i%7 == 6 {
				want, errWant = fresh.ReadReset(slot)
				errGot = into.ReadResetInto(slot, &res)
			} else {
				want, errWant = fresh.Add(slot, vals)
				errGot = into.AddInto(slot, vals, &res)
			}
			if errWant != nil || errGot != nil {
				t.Fatalf("%s op %d: %v / %v", name, i, errWant, errGot)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s op %d: into %+v, fresh %+v", name, i, res, want)
			}
		}
		if err := into.AddInto(16, []float32{1}, &res); err == nil {
			t.Errorf("%s: out-of-range slot accepted", name)
		}
		if _, err := fresh.Add(0, make([]float32, 4)); err == nil {
			t.Errorf("%s: too many values accepted", name)
		}
	}
}

// A nil Result discards the response but keeps the register side effect;
// on the pipeline the pass is absorbed, emitting nothing.
func TestIntoNilResultStillOperates(t *testing.T) {
	for name, pa := range intoBackends(t) {
		if err := pa.AddInto(2, []float32{9, 9, 9}, nil); err != nil {
			t.Fatal(err)
		}
		if err := pa.SetInto(2, []float32{1.5, 2, 3}, nil); err != nil { // overwrites the 9s
			t.Fatal(err)
		}
		r, err := pa.Add(2, []float32{0.5, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		if r.Values[0] != 2 || r.Values[2] != 3 || r.Count != 2 {
			t.Errorf("%s: after a discarded add and set: %+v", name, r)
		}
		if err := pa.ReadResetInto(2, nil); err != nil {
			t.Fatal(err)
		}
		if r, _ = pa.ReadReset(2); r.Values[0] != 0 || r.Count != 0 {
			t.Errorf("%s: after a discarded read-reset: %+v", name, r)
		}
		if pa.pipe != nil {
			if c := pa.pipe.Switch().Counters(); c.Received != 5 || c.Emitted != 2 {
				t.Errorf("%s: counters %+v, want 5 passes of which the 2 with a Result emitted", name, c)
			}
		}
	}
}

// A fresh Result must not alias aggregator or pipeline scratch: it stays
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
		if want := []float32{1, 2, 3}; !reflect.DeepEqual(kept.Values, want) {
			t.Errorf("%s: kept result changed to %v", name, kept.Values)
		}
	}
}

func TestIntoAllocatesNothing(t *testing.T) {
	for name, pa := range intoBackends(t) {
		var res Result
		vals := []float32{1, -2, 0.5}
		n := 0
		allocgate.AtMost(t, name+" AddInto", 0, func() {
			if err := pa.AddInto(n%16, vals, &res); err != nil {
				t.Fatal(err)
			}
			n++
		})
		allocgate.AtMost(t, name+" SetInto", 0, func() {
			if err := pa.SetInto(n%16, vals, &res); err != nil {
				t.Fatal(err)
			}
			n++
		})
		allocgate.AtMost(t, name+" ReadResetInto", 0, func() {
			if err := pa.ReadResetInto(n%16, &res); err != nil {
				t.Fatal(err)
			}
			n++
		})
		// On the pipeline backend these are PipelineAggregator's …Into with
		// a nil Result: absorbed passes (pisa.Switch.Absorb).
		allocgate.AtMost(t, name+" discarding", 0, func() {
			if err := pa.SetInto(n%16, vals, nil); err != nil {
				t.Fatal(err)
			}
			if err := pa.AddInto(n%16, vals, nil); err != nil {
				t.Fatal(err)
			}
			if err := pa.ReadResetInto(n%16, nil); err != nil {
				t.Fatal(err)
			}
			n++
		})
	}
}
