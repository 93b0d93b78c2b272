package main

import "testing"

func TestUsedEquivalence(t *testing.T) {
	stale := used()
	if stale != 1 {
		t.Fatal("drift")
	}
}
