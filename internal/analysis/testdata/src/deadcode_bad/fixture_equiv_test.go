package main

import "testing"

func TestUsedEquivalence(t *testing.T) {
	if used() != refUsed() {
		t.Fatal("drift")
	}
}
