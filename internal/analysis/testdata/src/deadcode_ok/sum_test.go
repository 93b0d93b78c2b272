package main

import "testing"

// refSum is the reference copy only the pin test calls.
func refSum(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[0] + refSum(xs[1:])
}

func TestFastSumMatchesReference(t *testing.T) {
	if fastSum(table) != refSum(table) {
		t.Fatal("drift")
	}
}
