// Package design serializes complete co-design problem instances — the
// circuit, the package spec and the per-quadrant bump-ball maps — in a
// line-oriented text format, so real designs can be fed to the tools
// instead of generated ones.
//
// The format extends the netlist format with package directives:
//
//	# anything after '#' is a comment
//	circuit <name>
//	net <name> <class> [tier]
//	...
//	package <name>
//	spec ball <diameter> <space> via <diameter>
//	spec finger <width> <height> <space>
//	spec rows <n>
//	tiers <psi>
//	quadrant <bottom|right|top|left>
//	row <net|-> <net|-> ...        # highest line first; '-' is an empty site
//	...
//	order <side> <net> <net> ...   # optional: a planned finger order
//
// Exactly one circuit block must precede the package block; every quadrant
// must list exactly `rows` row lines; every net must appear on exactly one
// ball. Read validates the result into a core.Problem. The optional order
// directives carry a planned assignment (one per side, finger slots left to
// right); ReadSolution returns it alongside the problem.
package design

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/faultinject"
	"copack/internal/netlist"
)

// Write serializes a problem in the design file format.
func Write(w io.Writer, p *core.Problem) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", p.Circuit.Name)
	for _, n := range p.Circuit.Nets() {
		if n.Tier == 1 {
			fmt.Fprintf(bw, "net %s %s\n", n.Name, n.Class)
		} else {
			fmt.Fprintf(bw, "net %s %s %d\n", n.Name, n.Class, n.Tier)
		}
	}
	spec := p.Pkg.Spec
	fmt.Fprintf(bw, "package %s\n", spec.Name)
	fmt.Fprintf(bw, "spec ball %g %g via %g\n", spec.BallDiameter, spec.BallSpace, spec.ViaDiameter)
	fmt.Fprintf(bw, "spec finger %g %g %g\n", spec.FingerWidth, spec.FingerHeight, spec.FingerSpace)
	fmt.Fprintf(bw, "spec rows %d\n", spec.Rows)
	fmt.Fprintf(bw, "tiers %d\n", p.Tiers)
	for _, side := range bga.Sides() {
		q := p.Pkg.Quadrant(side)
		fmt.Fprintf(bw, "quadrant %s\n", side)
		for y := q.NumRows(); y >= 1; y-- {
			row := q.Row(y)
			fields := make([]string, 0, row.Sites())
			for _, id := range row.Nets {
				if id == bga.NoNet {
					fields = append(fields, "-")
				} else {
					fields = append(fields, p.Circuit.Net(id).Name)
				}
			}
			fmt.Fprintf(bw, "row %s\n", strings.Join(fields, " "))
		}
	}
	return bw.Flush()
}

// Format renders a problem as a design-file string.
func Format(p *core.Problem) string {
	var sb strings.Builder
	_ = Write(&sb, p)
	return sb.String()
}

// WriteSolution serializes a problem together with a planned assignment
// (appending one order line per side).
func WriteSolution(w io.Writer, p *core.Problem, a *core.Assignment) error {
	if err := Write(w, p); err != nil {
		return err
	}
	return WriteOrders(w, p, a)
}

// WriteOrders writes a planned assignment's order lines, one per side:
// what WriteSolution appends to the problem's design text.
func WriteOrders(w io.Writer, p *core.Problem, a *core.Assignment) error {
	bw := bufio.NewWriter(w)
	for _, side := range bga.Sides() {
		fields := make([]string, 0, len(a.Slots[side])+2)
		fields = append(fields, "order", side.String())
		for _, id := range a.Slots[side] {
			fields = append(fields, p.Circuit.Net(id).Name)
		}
		fmt.Fprintln(bw, strings.Join(fields, " "))
	}
	return bw.Flush()
}

// IOError reports that the underlying io.Reader failed while Read was
// scanning the design text. It is distinct from a parse error — the input
// was never fully seen, so nothing can be said about its validity — which
// lets callers map the two cases differently (a service turns parse errors
// into 400 Bad Request and transport failures into 5xx). Unwrap exposes
// the reader's original error for errors.Is/As.
type IOError struct{ Err error }

// Error implements error.
func (e *IOError) Error() string { return fmt.Sprintf("design: read: %v", e.Err) }

// Unwrap exposes the underlying reader error.
func (e *IOError) Unwrap() error { return e.Err }

type parser struct {
	lineno  int
	circuit *netlist.Circuit
	spec    bga.Spec
	tiers   int

	haveBallSpec, haveFingerSpec, haveRows bool
	pkgSeen                                bool

	curSide  bga.Side
	inQuad   bool
	rows     map[bga.Side][]bga.Row
	quadSeen map[bga.Side]bool
	orders   map[bga.Side][]netlist.ID
}

func (ps *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("design: line %d: %s", ps.lineno, fmt.Sprintf(format, args...))
}

// Read parses and validates a problem from the design file format. Order
// directives, if present, are validated but discarded; use ReadSolution to
// retrieve them.
func Read(r io.Reader) (*core.Problem, error) {
	ps, err := parse(r)
	if err != nil {
		return nil, err
	}
	p, err := ps.finish()
	if err != nil {
		return nil, err
	}
	if _, err := ps.assignment(p); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadSolution parses a design file and returns both the problem and the
// assignment carried by its order directives (nil when the file has none).
func ReadSolution(r io.Reader) (*core.Problem, *core.Assignment, error) {
	ps, err := parse(r)
	if err != nil {
		return nil, nil, err
	}
	p, err := ps.finish()
	if err != nil {
		return nil, nil, err
	}
	a, err := ps.assignment(p)
	if err != nil {
		return nil, nil, err
	}
	return p, a, nil
}

// assignment materializes the parsed order directives, if any.
func (ps *parser) assignment(p *core.Problem) (*core.Assignment, error) {
	if len(ps.orders) == 0 {
		return nil, nil
	}
	var slots [bga.NumSides][]netlist.ID
	for _, side := range bga.Sides() {
		ids, ok := ps.orders[side]
		if !ok {
			return nil, fmt.Errorf("design: order lines cover %d sides, missing %s", len(ps.orders), side)
		}
		slots[side] = ids
	}
	a, err := core.NewAssignment(p, slots)
	if err != nil {
		return nil, fmt.Errorf("design: %v", err)
	}
	return a, nil
}

func parse(r io.Reader) (*parser, error) {
	sc := bufio.NewScanner(r)
	// Designs run 2–12 KB; the buffer starts small and grows to the 1 MiB
	// line cap only for a line that needs it.
	sc.Buffer(make([]byte, 0, 4<<10), 1<<20)
	ps := &parser{
		tiers:    1,
		rows:     make(map[bga.Side][]bga.Row),
		quadSeen: make(map[bga.Side]bool),
		orders:   make(map[bga.Side][]netlist.ID),
	}
	for sc.Scan() {
		ps.lineno++
		if err := faultinject.Fire(faultinject.DesignLine); err != nil {
			return nil, ps.errf("%v", err)
		}
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := ps.directive(fields); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		// bufio.ErrTooLong is a property of the input (a line past the
		// scanner's 1 MiB cap), not of the transport: report it as a
		// parse error so callers reject the design rather than retry.
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("design: line %d: %v", ps.lineno+1, err)
		}
		return nil, &IOError{Err: err}
	}
	return ps, nil
}

func (ps *parser) directive(fields []string) error {
	switch fields[0] {
	case "circuit":
		if ps.circuit != nil {
			return ps.errf("duplicate circuit")
		}
		if len(fields) != 2 {
			return ps.errf("want \"circuit <name>\"")
		}
		ps.circuit = netlist.New(fields[1])
	case "net":
		if ps.circuit == nil {
			return ps.errf("net before circuit")
		}
		if ps.pkgSeen {
			return ps.errf("net after package block")
		}
		if len(fields) < 3 || len(fields) > 4 {
			return ps.errf("want \"net <name> <class> [tier]\"")
		}
		class, err := netlist.ParseNetClass(fields[2])
		if err != nil {
			return ps.errf("%v", err)
		}
		tier := 1
		if len(fields) == 4 {
			if tier, err = strconv.Atoi(fields[3]); err != nil {
				return ps.errf("bad tier %q", fields[3])
			}
		}
		if _, err := ps.circuit.AddNet(netlist.Net{Name: fields[1], Class: class, Tier: tier}); err != nil {
			return ps.errf("%v", err)
		}
	case "package":
		if ps.pkgSeen {
			return ps.errf("duplicate package")
		}
		if ps.circuit == nil {
			return ps.errf("package before circuit")
		}
		if len(fields) != 2 {
			return ps.errf("want \"package <name>\"")
		}
		ps.pkgSeen = true
		ps.spec.Name = fields[1]
	case "spec":
		if !ps.pkgSeen {
			return ps.errf("spec before package")
		}
		return ps.specDirective(fields)
	case "tiers":
		if len(fields) != 2 {
			return ps.errf("want \"tiers <psi>\"")
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil || v < 1 {
			return ps.errf("bad tier count %q", fields[1])
		}
		ps.tiers = v
	case "quadrant":
		if !ps.pkgSeen {
			return ps.errf("quadrant before package")
		}
		if len(fields) != 2 {
			return ps.errf("want \"quadrant <side>\"")
		}
		side, err := parseSide(fields[1])
		if err != nil {
			return ps.errf("%v", err)
		}
		if ps.quadSeen[side] {
			return ps.errf("duplicate quadrant %s", side)
		}
		ps.quadSeen[side] = true
		ps.curSide = side
		ps.inQuad = true
	case "row":
		if !ps.inQuad {
			return ps.errf("row outside quadrant")
		}
		nets := make([]netlist.ID, 0, len(fields)-1)
		for _, tok := range fields[1:] {
			if tok == "-" {
				nets = append(nets, bga.NoNet)
				continue
			}
			id, ok := ps.circuit.ByName(tok)
			if !ok {
				return ps.errf("unknown net %q", tok)
			}
			nets = append(nets, id)
		}
		if len(nets) == 0 {
			return ps.errf("empty row")
		}
		ps.rows[ps.curSide] = append(ps.rows[ps.curSide], bga.Row{Nets: nets})
	case "order":
		if ps.circuit == nil || !ps.pkgSeen {
			return ps.errf("order before circuit/package")
		}
		if len(fields) < 3 {
			return ps.errf("want \"order <side> <net> ...\"")
		}
		side, err := parseSide(fields[1])
		if err != nil {
			return ps.errf("%v", err)
		}
		if _, dup := ps.orders[side]; dup {
			return ps.errf("duplicate order for %s", side)
		}
		ids := make([]netlist.ID, 0, len(fields)-2)
		for _, tok := range fields[2:] {
			id, ok := ps.circuit.ByName(tok)
			if !ok {
				return ps.errf("unknown net %q in order", tok)
			}
			ids = append(ids, id)
		}
		ps.orders[side] = ids
	default:
		return ps.errf("unknown directive %q", fields[0])
	}
	return nil
}

func (ps *parser) specDirective(fields []string) error {
	parse := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
	switch {
	case len(fields) == 6 && fields[1] == "ball" && fields[4] == "via":
		var err error
		if ps.spec.BallDiameter, err = parse(fields[2]); err != nil {
			return ps.errf("bad ball diameter %q", fields[2])
		}
		if ps.spec.BallSpace, err = parse(fields[3]); err != nil {
			return ps.errf("bad ball space %q", fields[3])
		}
		if ps.spec.ViaDiameter, err = parse(fields[5]); err != nil {
			return ps.errf("bad via diameter %q", fields[5])
		}
		ps.haveBallSpec = true
	case len(fields) == 5 && fields[1] == "finger":
		var err error
		if ps.spec.FingerWidth, err = parse(fields[2]); err != nil {
			return ps.errf("bad finger width %q", fields[2])
		}
		if ps.spec.FingerHeight, err = parse(fields[3]); err != nil {
			return ps.errf("bad finger height %q", fields[3])
		}
		if ps.spec.FingerSpace, err = parse(fields[4]); err != nil {
			return ps.errf("bad finger space %q", fields[4])
		}
		ps.haveFingerSpec = true
	case len(fields) == 3 && fields[1] == "rows":
		v, err := strconv.Atoi(fields[2])
		if err != nil || v < 1 {
			return ps.errf("bad rows %q", fields[2])
		}
		ps.spec.Rows = v
		ps.haveRows = true
	default:
		return ps.errf("unknown spec directive %q", strings.Join(fields, " "))
	}
	return nil
}

func (ps *parser) finish() (*core.Problem, error) {
	if ps.circuit == nil {
		return nil, fmt.Errorf("design: no circuit block")
	}
	if !ps.pkgSeen {
		return nil, fmt.Errorf("design: no package block")
	}
	if !ps.haveBallSpec || !ps.haveFingerSpec || !ps.haveRows {
		return nil, fmt.Errorf("design: incomplete spec (need ball, finger and rows lines)")
	}
	var quads [bga.NumSides]*bga.Quadrant
	for _, side := range bga.Sides() {
		rows := ps.rows[side]
		if !ps.quadSeen[side] {
			return nil, fmt.Errorf("design: missing quadrant %s", side)
		}
		if len(rows) != ps.spec.Rows {
			return nil, fmt.Errorf("design: quadrant %s has %d rows, spec says %d", side, len(rows), ps.spec.Rows)
		}
		q, err := bga.NewQuadrant(side, rows)
		if err != nil {
			return nil, fmt.Errorf("design: %v", err)
		}
		quads[side] = q
	}
	pkg, err := bga.NewPackage(ps.spec, quads)
	if err != nil {
		return nil, fmt.Errorf("design: %v", err)
	}
	return core.NewProblem(ps.circuit, pkg, ps.tiers)
}

// Parse parses a problem from a string.
func Parse(s string) (*core.Problem, error) { return Read(strings.NewReader(s)) }

func parseSide(s string) (bga.Side, error) {
	switch strings.ToLower(s) {
	case "bottom":
		return bga.Bottom, nil
	case "right":
		return bga.Right, nil
	case "top":
		return bga.Top, nil
	case "left":
		return bga.Left, nil
	default:
		return 0, fmt.Errorf("unknown side %q", s)
	}
}
