package design

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
)

func TestRoundTripGenerated(t *testing.T) {
	for _, tiers := range []int{1, 4} {
		p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 5, Tiers: tiers})
		text := Format(p)
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("tiers %d: %v\n%s", tiers, err, text)
		}
		if got.Circuit.NumNets() != p.Circuit.NumNets() {
			t.Fatalf("nets: %d != %d", got.Circuit.NumNets(), p.Circuit.NumNets())
		}
		if got.Tiers != p.Tiers {
			t.Fatalf("tiers: %d != %d", got.Tiers, p.Tiers)
		}
		if got.Pkg.Spec != p.Pkg.Spec {
			t.Fatalf("spec: %+v != %+v", got.Pkg.Spec, p.Pkg.Spec)
		}
		for _, side := range bga.Sides() {
			qa, qb := p.Pkg.Quadrant(side), got.Pkg.Quadrant(side)
			for y := 1; y <= qa.NumRows(); y++ {
				ra, rb := qa.Row(y), qb.Row(y)
				if ra.Sites() != rb.Sites() {
					t.Fatalf("%v line %d: %d sites != %d", side, y, ra.Sites(), rb.Sites())
				}
				for x := 1; x <= ra.Sites(); x++ {
					na, nb := qa.NetAt(x, y), qb.NetAt(x, y)
					switch {
					case na == bga.NoNet && nb == bga.NoNet:
					case na == bga.NoNet || nb == bga.NoNet:
						t.Fatalf("%v (%d,%d): emptiness differs", side, x, y)
					case p.Circuit.Net(na).Name != got.Circuit.Net(nb).Name:
						t.Fatalf("%v (%d,%d): %s != %s", side, x, y,
							p.Circuit.Net(na).Name, got.Circuit.Net(nb).Name)
					}
				}
			}
		}
	}
}

const minimal = `
# tiny two-line package
circuit c
net a signal
net b power
net c signal
net d signal
net e signal 2
net f ground 2
net g signal
net h signal
package pkg
spec ball 0.2 1.2 via 0.1
spec finger 0.1 0.2 0.12
spec rows 2
tiers 2
quadrant bottom
row a -
row b -
quadrant right
row c -
row d -
quadrant top
row e -
row f -
quadrant left
row g -
row h -
`

func TestParseMinimal(t *testing.T) {
	p, err := Parse(minimal)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tiers != 2 || p.Circuit.NumNets() != 8 {
		t.Fatalf("parsed %d nets, tiers %d", p.Circuit.NumNets(), p.Tiers)
	}
	q := p.Pkg.Quadrant(bga.Bottom)
	if q.Row(2).Sites() != 2 || q.Row(2).Occupied() != 1 {
		t.Errorf("bottom top line = %+v", q.Row(2))
	}
	id, _ := p.Circuit.ByName("a")
	if ref, ok := q.Ball(id); !ok || ref != (bga.BallRef{X: 1, Y: 2}) {
		t.Errorf("net a ball = %v,%v", ref, ok)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"no package", "circuit c\nnet a signal\n"},
		{"net after package", "circuit c\nnet a signal\npackage p\nnet b signal\n"},
		{"duplicate circuit", "circuit a\ncircuit b\n"},
		{"duplicate package", "circuit c\nnet a signal\npackage p\npackage q\n"},
		{"package before circuit", "package p\n"},
		{"spec before package", "circuit c\nnet a signal\nspec rows 2\n"},
		{"bad side", strings.Replace(minimal, "quadrant bottom", "quadrant north", 1)},
		{"duplicate quadrant", strings.Replace(minimal, "quadrant right", "quadrant bottom", 1)},
		{"unknown net in row", strings.Replace(minimal, "row a -", "row zz -", 1)},
		{"row outside quadrant", "circuit c\nnet a signal\npackage p\nrow a\n"},
		{"empty row", strings.Replace(minimal, "row a -", "row", 1)},
		{"unknown directive", minimal + "\nfrobnicate\n"},
		{"bad tiers", strings.Replace(minimal, "tiers 2", "tiers zero", 1)},
		{"missing quadrant", strings.Replace(minimal, "quadrant left\nrow g -\nrow h -\n", "", 1)},
		{"row count mismatch", strings.Replace(minimal, "row h -", "", 1)},
		{"bad ball spec", strings.Replace(minimal, "spec ball 0.2 1.2 via 0.1", "spec ball x 1.2 via 0.1", 1)},
		{"bad finger spec", strings.Replace(minimal, "spec finger 0.1 0.2 0.12", "spec finger 0.1 0.2", 1)},
		{"bad rows", strings.Replace(minimal, "spec rows 2", "spec rows -3", 1)},
		{"missing spec", strings.Replace(minimal, "spec finger 0.1 0.2 0.12\n", "", 1)},
		{"duplicate ball", strings.Replace(minimal, "row b -", "row a -", 1)},
		{"tier above psi", strings.Replace(minimal, "tiers 2", "tiers 1", 1)},
	}
	for _, c := range cases {
		if _, err := Parse(c.text); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	text := strings.Replace(minimal, "row a -", "row a -   # trailing comment", 1)
	if _, err := Parse(text); err != nil {
		t.Fatalf("comment handling: %v", err)
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Parse("circuit c\nnet a signal\nbogus\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("want line number, got %v", err)
	}
}

func solutionText(t *testing.T, p *core.Problem, a *core.Assignment) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteSolution(&sb, p, a); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSolutionRoundTrip(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 6, Tiers: 2})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	text := solutionText(t, p, a)
	p2, a2, err := ReadSolution(strings.NewReader(text))
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if a2 == nil {
		t.Fatal("solution lost")
	}
	for _, side := range bga.Sides() {
		if len(a2.Slots[side]) != len(a.Slots[side]) {
			t.Fatalf("%v: slot counts differ", side)
		}
		for i := range a.Slots[side] {
			na := p.Circuit.Net(a.Slots[side][i]).Name
			nb := p2.Circuit.Net(a2.Slots[side][i]).Name
			if na != nb {
				t.Fatalf("%v slot %d: %s != %s", side, i+1, na, nb)
			}
		}
	}
	if err := core.CheckMonotonic(p2, a2); err != nil {
		t.Errorf("re-read solution illegal: %v", err)
	}
}

func TestReadSolutionWithoutOrders(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 6})
	_, a, err := ReadSolution(strings.NewReader(Format(p)))
	if err != nil {
		t.Fatal(err)
	}
	if a != nil {
		t.Error("assignment from order-free file should be nil")
	}
}

func TestSolutionErrors(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 6})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	text := solutionText(t, p, a)

	// Missing one side's order.
	mutated := strings.Replace(text, "order left", "# order left", 1)
	if _, _, err := ReadSolution(strings.NewReader(mutated)); err == nil {
		t.Error("partial order set accepted")
	}
	// Unknown net in order.
	mutated = strings.Replace(text, "order bottom ", "order bottom zz ", 1)
	if _, _, err := ReadSolution(strings.NewReader(mutated)); err == nil {
		t.Error("unknown net in order accepted")
	}
	// Duplicate order directive.
	mutated = text + "order bottom N0\n"
	if _, _, err := ReadSolution(strings.NewReader(mutated)); err == nil {
		t.Error("duplicate order accepted")
	}
	// Read (non-solution) still validates order lines.
	if _, err := Parse(mutated); err == nil {
		t.Error("Read accepted corrupt order lines")
	}
}

// failingReader yields some valid prefix of a design file, then fails with
// a transport error, the way a dropped connection would.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadDistinguishesIOErrors(t *testing.T) {
	cause := fmt.Errorf("connection reset by peer")
	_, err := Read(&failingReader{data: []byte("circuit c\nnet a signal\n"), err: cause})
	if err == nil {
		t.Fatal("failing reader produced no error")
	}
	var ioErr *IOError
	if !errors.As(err, &ioErr) {
		t.Fatalf("reader failure not reported as *IOError: %T %v", err, err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("IOError does not unwrap to the reader's cause: %v", err)
	}

	// A plain parse error must NOT be an IOError.
	_, err = Parse("circuit c\nbogus directive\n")
	if err == nil {
		t.Fatal("bogus directive accepted")
	}
	if errors.As(err, &ioErr) {
		t.Errorf("parse error misclassified as IOError: %v", err)
	}

	// An over-long line is an input problem, not a transport one.
	long := "circuit c\n# " + strings.Repeat("x", 2<<20) + "\n"
	_, err = Read(strings.NewReader(long))
	if err == nil {
		t.Fatal("over-long line accepted")
	}
	if errors.As(err, &ioErr) {
		t.Errorf("bufio.ErrTooLong misclassified as IOError: %v", err)
	}

	// io.ErrUnexpectedEOF from the reader IS transport-shaped.
	_, err = Read(&failingReader{data: []byte("circuit c\n"), err: io.ErrUnexpectedEOF})
	if !errors.As(err, &ioErr) {
		t.Errorf("unexpected EOF not reported as *IOError: %v", err)
	}
}

// TestReadLineLengths: the scanner's buffer starts small and grows to the
// 1 MiB line cap. A design whose net line and row line run past 64 KiB
// (one net renamed to a 70 000-byte name) parses and keeps the name; one
// whose lines run past 1 MiB fails with a line-numbered parse error, not
// an IOError.
func TestReadLineLengths(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 5})
	text := Format(p)
	old := p.Circuit.Net(0).Name
	for _, size := range []int{70000, 1<<20 + 1} {
		name := strings.Repeat("n", size)
		long := strings.Replace(strings.Replace(text, "net "+old+" ", "net "+name+" ", 1), " "+old+" ", " "+name+" ", 1)
		if len(long) < len(text)+2*(size-len(old)) {
			t.Fatalf("size %d: the name was not replaced on both lines", size)
		}
		got, err := Parse(long)
		if size < 1<<20 {
			if err != nil {
				t.Fatalf("%d-byte lines: %v", size, err)
			}
			if got.Circuit.Net(0).Name != name {
				t.Fatalf("%d-byte lines: net 0 lost its name", size)
			}
			continue
		}
		var ioErr *IOError
		if err == nil || errors.As(err, &ioErr) || !strings.Contains(err.Error(), "token too long") {
			t.Fatalf("%d-byte lines: err = %v, want a too-long parse error", size, err)
		}
	}
}
