package b_test

import (
	"testing"

	"callerlessfixture/internal/a"
	"callerlessfixture/internal/b"
)

func TestExternal(t *testing.T) {
	if b.Hook() != 6 || a.XTestUsed() != 7 {
		t.Fatal("fixture")
	}
}
