package b

import (
	"testing"

	"callerlessfixture/internal/a"
)

// probe's Len shares a.Meter.Len's name, which keeps no a.Meter.Len alive.
type probe struct{}

func (probe) Len() int { return 0 }

func TestOther(t *testing.T) {
	if a.OtherTestUsed() != 2 || (probe{}).Len() != 0 {
		t.Fatal("fixture")
	}
}
