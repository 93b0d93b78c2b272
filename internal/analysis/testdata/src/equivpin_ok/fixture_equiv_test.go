package equivpin_ok

import "testing"

func TestEncodeEquivalence(t *testing.T) {
	if Encode() != 2 || roundTrip() != 3 {
		t.Fatal("drift")
	}
}
