package lib

import "testing"

// A test's references and settings count for nothing.
func TestPlanted(t *testing.T) {
	if Use(Options{Local: 1}) == 0 || (&Box{}).Name() != 0 {
		t.Fatal("planted")
	}
	_ = Orphan
}
