package namedpin

import "testing"

func solveAll(xs []int) (sum int) {
	for _, x := range xs {
		sum += Solve(x)
	}
	return sum
}

func TestSolveMatchesReference(t *testing.T) {
	if solveAll([]int{1, 2}) != 5 {
		t.Fatal("drift")
	}
}

func TestUnpinnedRuns(t *testing.T) {
	if Unpinned() != 3 {
		t.Fatal("drift")
	}
}
