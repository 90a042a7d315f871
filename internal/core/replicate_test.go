package core

import (
	"testing"

	"fpisa/internal/pisa"
)

// TestReplicateIndependentState verifies that replicas share the compiled
// program but nothing mutable: register state, slot sums and switch
// counters all diverge independently.
func TestReplicateIndependentState(t *testing.T) {
	pa, err := NewPipelineAggregator(DefaultFP32(ModeApprox), 1, 8, pisa.BaseArch())
	if err != nil {
		t.Fatal(err)
	}
	rep := pa.Replicate()
	if rep.lay != pa.lay {
		t.Fatalf("replica layout %+v differs from original %+v", rep.lay, pa.lay)
	}

	if _, err := pa.Add(3, []float32{1.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Add(3, []float32{2.0}); err != nil {
		t.Fatal(err)
	}
	// The replica's slot is untouched.
	r, err := rep.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if c := reg(t, rep, "cnt_reg", 3); r[0] != 0 || c != 0 {
		t.Fatalf("replica slot not fresh: value %g count %d", r[0], c)
	}
	// The original accumulated.
	r, err = pa.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if c := reg(t, pa, "cnt_reg", 3); r[0] != 3.5 || c != 2 {
		t.Fatalf("original slot: value %g count %d, want 3.5/2", r[0], c)
	}
	// The replica aggregates independently and correctly.
	if _, err := rep.Add(3, []float32{0.25}); err != nil {
		t.Fatal(err)
	}
	r, err = rep.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if c := reg(t, rep, "cnt_reg", 3); r[0] != 0.25 || c != 1 {
		t.Fatalf("replica slot: value %g count %d, want 0.25/1", r[0], c)
	}

	// Switch counters are per-replica too: tilt the packet counts (original
	// has now seen one more packet than the replica) and compare.
	if _, err := pa.Read(0); err != nil {
		t.Fatal(err)
	}
	orig, repl := pa.Switch().Counters().Received, rep.Switch().Counters().Received
	if orig == 0 || repl == 0 || orig == repl {
		t.Fatalf("switch counters not independent: original %d, replica %d", orig, repl)
	}
}

// TestReplicateConcurrent drives replicas from parallel goroutines; under
// -race this proves replicas share no mutable state.
func TestReplicateConcurrent(t *testing.T) {
	pa, err := NewPipelineAggregator(DefaultFP32(ModeApprox), 1, 4, pisa.BaseArch())
	if err != nil {
		t.Fatal(err)
	}
	reps := []*PipelineAggregator{pa, pa.Replicate(), pa.Replicate(), pa.Replicate()}
	errc := make(chan error, len(reps))
	for _, r := range reps {
		go func(r *PipelineAggregator) {
			for i := 0; i < 50; i++ {
				if _, err := r.Add(i%4, []float32{1}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(r)
	}
	for range reps {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range reps {
		res, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if c := reg(t, r, "cnt_reg", 0); c != 13 || res[0] != 13 { // 50 adds round-robined over 4 slots: slot 0 gets 13
			t.Fatalf("replica %d slot 0 count %d sum %g, want 13", i, c, res[0])
		}
	}
}
