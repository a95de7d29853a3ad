package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"copack/internal/faultinject"
)

// The circuit file format is a line-oriented text format:
//
//	# comment
//	circuit <name>
//	net <name> <class> [tier]
//
// Exactly one "circuit" line must appear before any "net" line. The class is
// one of signal/power/ground (or the short forms s/p/g, vdd/vss). The tier
// defaults to 1.

// Write serializes c in the circuit file format.
func Write(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", c.Name)
	for _, n := range c.nets {
		if n.Tier == 1 {
			fmt.Fprintf(bw, "net %s %s\n", n.Name, n.Class)
		} else {
			fmt.Fprintf(bw, "net %s %s %d\n", n.Name, n.Class, n.Tier)
		}
	}
	return bw.Flush()
}

// String renders the circuit in the file format.
func (c *Circuit) String() string {
	var sb strings.Builder
	_ = Write(&sb, c)
	return sb.String()
}

// Read parses a circuit from the file format, reporting errors with line
// numbers.
func Read(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	// The buffer starts small and grows to the 1 MiB line cap only for a
	// line that needs it.
	sc.Buffer(make([]byte, 0, 4<<10), 1<<20)
	var c *Circuit
	lineno := 0
	for sc.Scan() {
		lineno++
		if err := faultinject.Fire(faultinject.NetlistLine); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %v", lineno, err)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "circuit":
			if c != nil {
				return nil, fmt.Errorf("netlist: line %d: duplicate circuit line", lineno)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: want \"circuit <name>\"", lineno)
			}
			c = New(fields[1])
		case "net":
			if c == nil {
				return nil, fmt.Errorf("netlist: line %d: net before circuit line", lineno)
			}
			if len(fields) < 3 || len(fields) > 4 {
				return nil, fmt.Errorf("netlist: line %d: want \"net <name> <class> [tier]\"", lineno)
			}
			class, err := ParseNetClass(fields[2])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineno, err)
			}
			tier := 1
			if len(fields) == 4 {
				tier, err = strconv.Atoi(fields[3])
				if err != nil {
					return nil, fmt.Errorf("netlist: line %d: bad tier %q", lineno, fields[3])
				}
			}
			if _, err := c.AddNet(Net{Name: fields[1], Class: class, Tier: tier}); err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineno, err)
			}
		default:
			return nil, fmt.Errorf("netlist: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: read: %v", err)
	}
	if c == nil {
		return nil, fmt.Errorf("netlist: input contains no circuit")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Parse parses a circuit from a string.
func Parse(s string) (*Circuit, error) { return Read(strings.NewReader(s)) }
