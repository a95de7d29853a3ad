package netlist

import (
	"fmt"
	"strings"
	"testing"
)

func mk(t *testing.T, specs ...string) *Circuit {
	t.Helper()
	c := New("t")
	for _, s := range specs {
		var name, class string
		tier := 1
		n, err := fmt.Sscanf(s, "%s %s %d", &name, &class, &tier)
		if n < 2 && err != nil {
			if _, err2 := fmt.Sscanf(s, "%s %s", &name, &class); err2 != nil {
				t.Fatalf("bad spec %q", s)
			}
		}
		cl, err := ParseNetClass(class)
		if err != nil {
			t.Fatal(err)
		}
		c.MustAddNet(Net{Name: name, Class: cl, Tier: tier})
	}
	return c
}

func TestAddNetAssignsDenseIDs(t *testing.T) {
	c := New("x")
	for i := 0; i < 5; i++ {
		id, err := c.AddNet(Net{Name: fmt.Sprintf("n%d", i), Class: Signal, Tier: 1})
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	if c.NumNets() != 5 {
		t.Fatalf("NumNets = %d", c.NumNets())
	}
}

func TestAddNetRejectsBadInput(t *testing.T) {
	c := New("x")
	if _, err := c.AddNet(Net{Name: "", Class: Signal, Tier: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.AddNet(Net{Name: "a", Class: Signal, Tier: 0}); err == nil {
		t.Error("zero tier accepted")
	}
	c.MustAddNet(Net{Name: "a", Class: Signal, Tier: 1})
	if _, err := c.AddNet(Net{Name: "a", Class: Power, Tier: 1}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestByName(t *testing.T) {
	c := mk(t, "a signal", "b power", "c ground")
	id, ok := c.ByName("b")
	if !ok || c.Net(id).Class != Power {
		t.Fatalf("ByName(b) = %v,%v", id, ok)
	}
	if _, ok := c.ByName("zzz"); ok {
		t.Error("found nonexistent net")
	}
}

func TestClassQueries(t *testing.T) {
	c := mk(t, "s1 signal", "p1 power", "s2 signal", "g1 ground", "p2 power")
	for id, want := range []NetClass{Signal, Power, Signal, Ground, Power} {
		if got := c.Net(ID(id)).Class; got != want {
			t.Errorf("net %d class %v, want %v", id, got, want)
		}
	}
	byc := c.CountByClass()
	if byc[Signal] != 2 || byc[Power] != 2 || byc[Ground] != 1 {
		t.Errorf("CountByClass = %v", byc)
	}
}

func TestSupplyClass(t *testing.T) {
	if Signal.SupplyClass() {
		t.Error("signal is not a supply class")
	}
	if !Power.SupplyClass() || !Ground.SupplyClass() {
		t.Error("power/ground are supply classes")
	}
}

func TestTiers(t *testing.T) {
	c := New("s")
	c.MustAddNet(Net{Name: "a", Class: Signal, Tier: 1})
	c.MustAddNet(Net{Name: "b", Class: Signal, Tier: 2})
	c.MustAddNet(Net{Name: "c", Class: Power, Tier: 2})
	if c.NumTiers() != 2 {
		t.Errorf("NumTiers = %d", c.NumTiers())
	}
	tc := c.TierCounts()
	if tc[1] != 1 || tc[2] != 2 {
		t.Errorf("TierCounts = %v", tc)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsGappyTiers(t *testing.T) {
	c := New("s")
	c.MustAddNet(Net{Name: "a", Class: Signal, Tier: 1})
	c.MustAddNet(Net{Name: "b", Class: Signal, Tier: 3})
	if err := c.Validate(); err == nil {
		t.Error("tier gap accepted")
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	if err := New("e").Validate(); err == nil {
		t.Error("empty circuit accepted")
	}
}

func TestParseNetClass(t *testing.T) {
	for tok, want := range map[string]NetClass{
		"signal": Signal, "s": Signal,
		"power": Power, "p": Power, "VDD": Power,
		"ground": Ground, "gnd": Ground, "VSS": Ground,
	} {
		got, err := ParseNetClass(tok)
		if err != nil || got != want {
			t.Errorf("ParseNetClass(%q) = %v,%v want %v", tok, got, err, want)
		}
	}
	if _, err := ParseNetClass("bogus"); err == nil {
		t.Error("bogus class accepted")
	}
}

func TestClassString(t *testing.T) {
	if Signal.String() != "signal" || Power.String() != "power" || Ground.String() != "ground" {
		t.Error("String tokens wrong")
	}
	if NetClass(99).String() != "NetClass(99)" {
		t.Error("unknown class String wrong")
	}
}

func TestRoundTrip(t *testing.T) {
	c := New("demo")
	c.MustAddNet(Net{Name: "d0", Class: Signal, Tier: 1})
	c.MustAddNet(Net{Name: "vdd0", Class: Power, Tier: 1})
	c.MustAddNet(Net{Name: "d1", Class: Signal, Tier: 2})
	text := c.String()
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	if got.Name != "demo" || got.NumNets() != 3 {
		t.Fatalf("round trip lost data: %v", got)
	}
	for i := 0; i < 3; i++ {
		if got.Net(ID(i)) != c.Net(ID(i)) {
			t.Errorf("net %d: %v != %v", i, got.Net(ID(i)), c.Net(ID(i)))
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"net before circuit", "net a signal\n"},
		{"duplicate circuit", "circuit a\ncircuit b\n"},
		{"bad directive", "circuit a\nfoo bar\n"},
		{"bad class", "circuit a\nnet x banana\n"},
		{"bad tier", "circuit a\nnet x signal two\n"},
		{"missing fields", "circuit a\nnet x\n"},
		{"duplicate net", "circuit a\nnet x signal\nnet x signal\n"},
		{"no nets", "circuit a\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.in); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		}
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	in := "# header\n\ncircuit c\n  # indented comment\nnet a signal\n\nnet b p 2\n"
	c, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNets() != 2 || c.Net(1).Tier != 2 || c.Net(1).Class != Power {
		t.Errorf("parsed wrong: %v", c)
	}
}

func TestParseReportsLineNumbers(t *testing.T) {
	_, err := Parse("circuit a\nnet ok signal\nnet bad banana\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("want line 3 in error, got %v", err)
	}
}

// TestReadLineLengths: the scanner's buffer starts small and grows to the
// 1 MiB line cap, so a net line past 64 KiB parses and one past 1 MiB
// fails.
func TestReadLineLengths(t *testing.T) {
	for _, size := range []int{70000, 1<<20 + 1} {
		name := strings.Repeat("n", size)
		c, err := Parse("circuit demo\nnet " + name + " power\n")
		if size < 1<<20 {
			if err != nil || c.Net(0).Name != name {
				t.Fatalf("%d-byte net line: %v", size, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "token too long") {
			t.Fatalf("%d-byte net line: err = %v, want token too long", size, err)
		}
	}
}
