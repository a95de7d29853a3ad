package netlist

import (
	"bufio"
	"errors"
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

// Write serializes c in the circuit file format. It is the one writer of
// the format: the design format's circuit block is written by it too.
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
		var err error
		if c, err = ApplyLine(c, strings.Fields(line)); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %v", lineno, err)
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

// ApplyLine applies one line of the circuit format, split into its
// fields, to c: the circuit the lines before it built, nil before the
// circuit line. It returns the circuit after the line. It is the one
// parser of the format's directives: Read and the design format's reader
// both hand it their circuit-block lines and prefix its errors with
// their own line numbers.
func ApplyLine(c *Circuit, fields []string) (*Circuit, error) {
	switch fields[0] {
	case "circuit":
		if c != nil {
			return nil, errors.New("duplicate circuit line")
		}
		if len(fields) != 2 {
			return nil, errors.New("want \"circuit <name>\"")
		}
		return New(fields[1]), nil
	case "net":
		if c == nil {
			return nil, errors.New("net before circuit line")
		}
		if len(fields) < 3 || len(fields) > 4 {
			return nil, errors.New("want \"net <name> <class> [tier]\"")
		}
		class, err := ParseNetClass(fields[2])
		if err != nil {
			return nil, err
		}
		tier := 1
		if len(fields) == 4 {
			if tier, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("bad tier %q", fields[3])
			}
		}
		_, err = c.AddNet(Net{Name: fields[1], Class: class, Tier: tier})
		return c, err
	default:
		return nil, fmt.Errorf("unknown directive %q", fields[0])
	}
}

// Parse parses a circuit from a string.
func Parse(s string) (*Circuit, error) { return Read(strings.NewReader(s)) }
