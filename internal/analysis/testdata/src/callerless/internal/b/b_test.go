package b

import (
	"testing"

	"callerlessfixture/internal/a"
)

func TestOther(t *testing.T) {
	if a.OtherTestUsed() != 2 {
		t.Fatal("fixture")
	}
}
