package kernel

import "testing"

func TestSumEquivalence(t *testing.T) {
	if Sum(1, 2) != 3 {
		t.Fatal("drift")
	}
}
