package a

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 1 || (Config{TestOnly: 1}).TestOnly != 1 {
		t.Fatal("fixture")
	}
}
