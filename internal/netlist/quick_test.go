package netlist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomCircuit builds a random valid circuit from a rand source.
type randomCircuit struct {
	c *Circuit
}

// Generate implements quick.Generator.
func (randomCircuit) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(30)
	tiers := 1 + r.Intn(4)
	c := New(fmt.Sprintf("c%d", r.Intn(1000)))
	for i := 0; i < n; i++ {
		class := NetClass(r.Intn(3))
		tier := 1 + i%tiers // contiguous tiers so Validate passes
		c.MustAddNet(Net{Name: fmt.Sprintf("n%d_%c", i, 'a'+rune(r.Intn(26))), Class: class, Tier: tier})
	}
	return reflect.ValueOf(randomCircuit{c: c})
}

// Property: every valid circuit round-trips through the text format
// losslessly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(rc randomCircuit) bool {
		text := rc.c.String()
		got, err := Parse(text)
		if err != nil {
			t.Logf("parse failed: %v\n%s", err, text)
			return false
		}
		if got.Name != rc.c.Name || got.NumNets() != rc.c.NumNets() {
			return false
		}
		for i := 0; i < got.NumNets(); i++ {
			if got.Net(ID(i)) != rc.c.Net(ID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: class partitions cover the circuit exactly once.
func TestQuickClassPartition(t *testing.T) {
	f := func(rc randomCircuit) bool {
		want := map[NetClass]int{}
		for i := 0; i < rc.c.NumNets(); i++ {
			want[rc.c.Net(ID(i)).Class]++
		}
		byc := rc.c.CountByClass()
		if byc[Signal]+byc[Power]+byc[Ground] != rc.c.NumNets() {
			return false
		}
		return byc[Signal] == want[Signal] && byc[Power] == want[Power] && byc[Ground] == want[Ground]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: ByName inverts Net for every net.
func TestQuickByNameInverse(t *testing.T) {
	f := func(rc randomCircuit) bool {
		for i := 0; i < rc.c.NumNets(); i++ {
			id, ok := rc.c.ByName(rc.c.Net(ID(i)).Name)
			if !ok || id != ID(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the parser never panics on arbitrary input (it may error).
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// And on structured-looking garbage.
	g := func(name, class string, tier int8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(fmt.Sprintf("circuit c\nnet %s %s %d\n", name, class, tier))
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
