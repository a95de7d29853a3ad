// Package netlist models the nets a chip exposes to its package: their
// names, their electrical class (signal, power, ground) and the circuit that
// groups them. The finger/pad planners consume circuits; the IR-drop model
// cares about which nets are power nets, because only power pads influence
// the core supply grid.
package netlist

import (
	"fmt"
	"strings"
)

// NetClass categorizes a net's electrical role.
type NetClass int

const (
	// Signal nets carry data; they matter for congestion and wirelength
	// but not for IR-drop.
	Signal NetClass = iota
	// Power nets feed the core supply; their pad positions drive IR-drop.
	Power
	// Ground nets return the core supply; treated like Power by the
	// IR-drop model of the paper (a pad constrains the grid either way).
	Ground
)

// String implements fmt.Stringer with the tokens used by the circuit file
// format.
func (c NetClass) String() string {
	switch c {
	case Signal:
		return "signal"
	case Power:
		return "power"
	case Ground:
		return "ground"
	default:
		return fmt.Sprintf("NetClass(%d)", int(c))
	}
}

// ParseNetClass converts a file-format token to a NetClass.
func ParseNetClass(s string) (NetClass, error) {
	switch strings.ToLower(s) {
	case "signal", "s":
		return Signal, nil
	case "power", "p", "vdd":
		return Power, nil
	case "ground", "g", "gnd", "vss":
		return Ground, nil
	default:
		return 0, fmt.Errorf("netlist: unknown net class %q", s)
	}
}

// SupplyClass reports whether the class is Power or Ground — the nets whose
// pad locations the IR-drop exchange is allowed to move in 2-D mode.
func (c NetClass) SupplyClass() bool { return c == Power || c == Ground }

// ID identifies a net by its index in the owning circuit's net list. IDs are
// dense: valid IDs are 0..NumNets-1.
type ID int

// Net is one chip net.
type Net struct {
	Name  string
	Class NetClass
	// Tier is the stacking tier (1-based) whose die carries this net's
	// pad. It is 1 for every net of a 2-D (single-die) circuit.
	Tier int
}

// Circuit is a named collection of nets. The zero value is an empty circuit;
// add nets with AddNet.
type Circuit struct {
	Name string

	nets   []Net
	byName map[string]ID
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]ID)}
}

// AddNet appends a net and returns its ID. It rejects empty and duplicate
// names and non-positive tiers (use tier 1 for 2-D circuits).
func (c *Circuit) AddNet(n Net) (ID, error) {
	if n.Name == "" {
		return 0, fmt.Errorf("netlist: empty net name")
	}
	if n.Tier <= 0 {
		return 0, fmt.Errorf("netlist: net %q has non-positive tier %d", n.Name, n.Tier)
	}
	if c.byName == nil {
		c.byName = make(map[string]ID)
	}
	if _, dup := c.byName[n.Name]; dup {
		return 0, fmt.Errorf("netlist: duplicate net name %q", n.Name)
	}
	id := ID(len(c.nets))
	c.nets = append(c.nets, n)
	c.byName[n.Name] = id
	return id, nil
}

// MustAddNet is AddNet for programmatic construction where the inputs are
// known valid; it panics on error. It must never sit on a path fed by user
// input (parsers and public constructors use AddNet and return the error);
// the remaining callers are fixed test fixtures and Clone, whose inputs a
// valid circuit already vouches for.
func (c *Circuit) MustAddNet(n Net) ID {
	id, err := c.AddNet(n)
	if err != nil {
		panic(err)
	}
	return id
}

// NumNets returns the number of nets.
func (c *Circuit) NumNets() int { return len(c.nets) }

// Net returns the net with the given ID. It panics on out-of-range IDs, like
// a slice index.
func (c *Circuit) Net(id ID) Net { return c.nets[id] }

// ByName looks a net up by name.
func (c *Circuit) ByName(name string) (ID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// Nets returns a copy of the net slice, indexable by ID.
func (c *Circuit) Nets() []Net {
	out := make([]Net, len(c.nets))
	copy(out, c.nets)
	return out
}

// CountByClass returns the number of nets per class.
func (c *Circuit) CountByClass() map[NetClass]int {
	m := make(map[NetClass]int, 3)
	for _, n := range c.nets {
		m[n.Class]++
	}
	return m
}

// NumTiers returns the highest tier any net names; 1 for 2-D circuits and 0
// for empty circuits.
func (c *Circuit) NumTiers() int {
	max := 0
	for _, n := range c.nets {
		if n.Tier > max {
			max = n.Tier
		}
	}
	return max
}

// TierCounts returns how many nets sit on each tier, indexed 1..NumTiers.
func (c *Circuit) TierCounts() map[int]int {
	m := make(map[int]int)
	for _, n := range c.nets {
		m[n.Tier]++
	}
	return m
}

// Validate checks structural invariants beyond what AddNet enforces: the
// circuit must be non-empty and tiers must be contiguous starting at 1 (a
// circuit claiming tier 3 with no tier-2 nets is almost certainly a
// construction bug).
func (c *Circuit) Validate() error {
	if len(c.nets) == 0 {
		return fmt.Errorf("netlist: circuit %q has no nets", c.Name)
	}
	// Contiguity check in O(nets), not O(max tier): every tier is >= 1
	// (AddNet), so the distinct tier count equals the maximum exactly
	// when tiers 1..max are all present. Walking 1..max instead would let
	// a parsed "net x signal 2000000000" stall validation for minutes.
	tiers := c.TierCounts()
	max := c.NumTiers()
	if len(tiers) != max {
		for t := 1; ; t++ {
			if tiers[t] == 0 {
				return fmt.Errorf("netlist: circuit %q uses tier %d but tier %d is empty", c.Name, max, t)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.Name)
	for _, n := range c.nets {
		out.MustAddNet(n)
	}
	return out
}
