package anneal

import "testing"

func TestSplitSeed(t *testing.T) {
	if SplitSeed(7, 0) != 7 {
		t.Errorf("restart 0 must keep the base seed, got %d", SplitSeed(7, 0))
	}
	if SplitSeed(7, 3) != 10 {
		t.Errorf("SplitSeed(7,3) = %d", SplitSeed(7, 3))
	}
}
