package lib_test

import (
	"testing"

	"fixture/internal/lib"
	"fixture/internal/libtest"
)

func TestLib(t *testing.T) {
	if lib.OnlyTested()+lib.Hook() != libtest.Helper() || lib.Width != 4 {
		t.Fatal("fixture arithmetic")
	}
}
