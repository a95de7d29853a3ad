package design

import (
	"math"
	"strings"
	"testing"

	"copack/internal/power"
)

// FuzzParseDesign checks that no design file — however malformed — can
// crash or hang the parser, that every accepted problem round-trips:
// Parse → Format → Parse yields the same text, and that every accepted
// package has a default IR grid that validates, so no non-finite geometry
// reaches the solver (the committed nonfinite-* seeds).
func FuzzParseDesign(f *testing.F) {
	seeds := []string{
		minimal,
		strings.Replace(minimal, "quadrant bottom", "quadrant north", 1),
		strings.Replace(minimal, "tiers 2", "tiers 0", 1),
		strings.Replace(minimal, "row a -", "row a a", 1),
		strings.Replace(minimal, "net e signal 2", "net e signal 2000000000", 1),
		"package pkg\n",
		"circuit c\nnet a signal\npackage pkg\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			return // rejected input: any error is fine, crashing is not
		}
		if rh := p.Pkg.RingHalf(); math.IsNaN(rh) || math.IsInf(rh, 0) {
			t.Fatalf("accepted design has a non-finite finger ring (half-width %g)", rh)
		}
		if err := power.DefaultChipGrid(p).Validate(); err != nil {
			t.Fatalf("accepted design has an invalid default IR grid: %v", err)
		}
		out := Format(p)
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\n%s", err, out)
		}
		if out2 := Format(p2); out2 != out {
			t.Fatalf("round-trip not stable:\n--- first ---\n%s\n--- second ---\n%s", out, out2)
		}
	})
}
