package main

import "testing"

func TestFastSumMatchesReference(t *testing.T) {
	if fastSum(table) != refSum(table) {
		t.Fatal("drift")
	}
}
