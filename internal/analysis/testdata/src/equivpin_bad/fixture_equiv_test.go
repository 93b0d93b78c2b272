package equivpin_bad

import (
	"testing"

	"sonic/internal/analysis/testdata/src/equivpin_bad/kernel"
)

func TestPinnedMatchesReference(t *testing.T) {
	if Pinned() != 1 || kernel.Scale(1) != 2 {
		t.Fatal("drift")
	}
}
