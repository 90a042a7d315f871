package main

import (
	"errors"
	"os"
	"testing"
)

// TestEveryExperimentRuns runs each experiment at -quick sizes and fails on
// any error: the command exits non-zero on a broken reproduction, so a
// broken reproduction must not reach it unnoticed.
func TestEveryExperimentRuns(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout; null.Close() }()

	for _, e := range experiments {
		if err := run(e.name, true, 1); err != nil {
			t.Errorf("-exp %s -quick: %v", e.name, err)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run("fig99", true, 1); !errors.Is(err, errUnknownExperiment) {
		t.Errorf("-exp fig99: error %v, want errUnknownExperiment", err)
	}
}
