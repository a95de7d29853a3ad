// Package bga models the two-layer ball-grid-array package of the paper:
// a die in the middle, a ring of fingers around it on Layer 1, and a grid of
// bump balls on Layer 2. The package area is partitioned into four triangular
// parts (bottom, right, top, left) that are planned independently, exactly as
// in the paper (and in Kubo–Takahashi routing).
//
// Within one quadrant the local frame is:
//
//	fingers  ············  at Y = 0, ordered left (slot 1) to right
//	row y=n  ○ ○ ○ ○       at Y = -pitch      (highest line, nearest fingers)
//	row y=2  ○ ○ ○ ○ ○     at Y = -(n-1)·pitch
//	row y=1  ○ ○ ○ ○ ○ ○   at Y = -n·pitch    (outermost line)
//
// Each bump ball owns one candidate via site at its bottom-left corner (the
// paper's stated assumption); a net uses at most one via. The via line of
// ball row y therefore sits between ball rows y and y-1.
package bga

import (
	"fmt"
	"math"

	"copack/internal/geom"
	"copack/internal/netlist"
)

// NoNet marks an unoccupied ball site.
const NoNet netlist.ID = -1

// Side names the four package quadrants.
type Side int

const (
	Bottom Side = iota
	Right
	Top
	Left
	// NumSides is the number of quadrants of a BGA package.
	NumSides = 4
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Bottom:
		return "bottom"
	case Right:
		return "right"
	case Top:
		return "top"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// Sides lists all quadrants in canonical order.
func Sides() []Side { return []Side{Bottom, Right, Top, Left} }

// Spec carries the geometric parameters of a package, mirroring Table 1 of
// the paper. All lengths are in µm.
type Spec struct {
	Name string
	// BallDiameter is the bump ball diameter (0.2 µm in the paper's test
	// circuits).
	BallDiameter float64
	// BallSpace is the minimal space between two consecutive bump balls;
	// the ball pitch is BallDiameter + BallSpace.
	BallSpace float64
	// ViaDiameter is the via diameter (0.1 µm in the paper).
	ViaDiameter float64
	// FingerWidth, FingerHeight and FingerSpace describe the finger
	// footprint; the finger pitch is FingerWidth + FingerSpace.
	FingerWidth, FingerHeight, FingerSpace float64
	// Rows is the number of horizontal (ball) lines per quadrant; the
	// paper fixes it at 4 for all five test circuits.
	Rows int
}

// BallPitch returns the center-to-center ball spacing.
func (s Spec) BallPitch() float64 { return s.BallDiameter + s.BallSpace }

// FingerPitch returns the center-to-center finger spacing.
func (s Spec) FingerPitch() float64 { return s.FingerWidth + s.FingerSpace }

// Validate checks that every dimension is finite, positive and mutually
// consistent. NaN and ±Inf are rejected explicitly: NaN fails every
// comparison, so "<= 0" alone would let it through.
func (s Spec) Validate() error {
	switch {
	case !finitePositive(s.BallDiameter):
		return fmt.Errorf("bga: spec %q: BallDiameter must be finite and positive", s.Name)
	case !finitePositive(s.BallSpace):
		return fmt.Errorf("bga: spec %q: BallSpace must be finite and positive", s.Name)
	case !finitePositive(s.ViaDiameter):
		return fmt.Errorf("bga: spec %q: ViaDiameter must be finite and positive", s.Name)
	case !finitePositive(s.FingerWidth) || !finitePositive(s.FingerHeight) || !finitePositive(s.FingerSpace):
		return fmt.Errorf("bga: spec %q: finger dimensions must be finite and positive", s.Name)
	case math.IsInf(s.BallPitch(), 0) || math.IsInf(s.FingerPitch(), 0):
		return fmt.Errorf("bga: spec %q: ball pitch %g or finger pitch %g overflows", s.Name, s.BallPitch(), s.FingerPitch())
	case s.ViaDiameter >= s.BallPitch():
		return fmt.Errorf("bga: spec %q: via (%g) does not fit in ball pitch (%g)", s.Name, s.ViaDiameter, s.BallPitch())
	case s.Rows <= 0:
		return fmt.Errorf("bga: spec %q: Rows must be positive", s.Name)
	}
	return nil
}

func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Row is one horizontal line of ball sites in a quadrant. Sites are indexed
// x = 1..len(Nets); Nets[x-1] holds the net whose ball occupies site x, or
// NoNet for an empty site. Empty sites still contribute a candidate via
// location, which matters for the density model.
type Row struct {
	Nets []netlist.ID
}

// Sites returns the number of ball sites on the row.
func (r Row) Sites() int { return len(r.Nets) }

// Occupied returns the number of sites holding a net.
func (r Row) Occupied() int {
	n := 0
	for _, id := range r.Nets {
		if id != NoNet {
			n++
		}
	}
	return n
}

// Quadrant is one of the four independently planned package parts: its ball
// grid (with the fixed input net-to-ball mapping) and a finger row with one
// slot per occupied ball.
type Quadrant struct {
	Side Side
	// rows[0] is line y=1 (outermost), rows[len-1] is line y=n (nearest
	// the fingers).
	rows []Row
	// ballOf maps a net to its ball site.
	ballOf map[netlist.ID]BallRef
}

// BallRef locates a ball site inside a quadrant: X is the 1-based site index
// on line Y (1 = outermost line, NumRows = nearest the fingers).
type BallRef struct {
	X, Y int
}

// NewQuadrant builds a quadrant from rows listed from the highest line
// (y = NumRows, nearest the fingers) down to y = 1, matching the paper's
// processing order. It rejects nets placed on more than one ball.
func NewQuadrant(side Side, topDown []Row) (*Quadrant, error) {
	n := len(topDown)
	q := &Quadrant{Side: side, rows: make([]Row, n), ballOf: make(map[netlist.ID]BallRef)}
	for i, r := range topDown {
		y := n - i // topDown[0] is line y=n
		cp := Row{Nets: make([]netlist.ID, len(r.Nets))}
		copy(cp.Nets, r.Nets)
		q.rows[y-1] = cp
		for xi, id := range cp.Nets {
			if id == NoNet {
				continue
			}
			if id < 0 {
				return nil, fmt.Errorf("bga: %v quadrant: invalid net id %d", side, id)
			}
			if prev, dup := q.ballOf[id]; dup {
				return nil, fmt.Errorf("bga: %v quadrant: net %d on two balls (%v and %v)", side, id, prev, BallRef{xi + 1, y})
			}
			q.ballOf[id] = BallRef{X: xi + 1, Y: y}
		}
	}
	return q, nil
}

// NumRows returns the number of ball lines n.
func (q *Quadrant) NumRows() int { return len(q.rows) }

// Row returns line y (1-based, y = NumRows is the highest line).
func (q *Quadrant) Row(y int) Row { return q.rows[y-1] }

// NumNets returns the number of nets placed in the quadrant, which equals
// the number of finger slots.
func (q *Quadrant) NumNets() int { return len(q.ballOf) }

// NumSlots returns the number of finger locations; the paper allocates
// exactly one finger per net of the quadrant.
func (q *Quadrant) NumSlots() int { return q.NumNets() }

// Ball returns the ball site of a net.
func (q *Quadrant) Ball(id netlist.ID) (BallRef, bool) {
	b, ok := q.ballOf[id]
	return b, ok
}

// NetAt returns the net on site (x, y), or NoNet.
func (q *Quadrant) NetAt(x, y int) netlist.ID {
	if y < 1 || y > len(q.rows) {
		return NoNet
	}
	r := q.rows[y-1]
	if x < 1 || x > len(r.Nets) {
		return NoNet
	}
	return r.Nets[x-1]
}

// Nets returns every net placed in the quadrant in ball order: line y = n
// first (left to right), then y = n-1, and so on. This is the order the
// paper's assignment algorithms consume balls in.
func (q *Quadrant) Nets() []netlist.ID {
	out := make([]netlist.ID, 0, q.NumNets())
	for y := q.NumRows(); y >= 1; y-- {
		for _, id := range q.rows[y-1].Nets {
			if id != NoNet {
				out = append(out, id)
			}
		}
	}
	return out
}

// Validate checks the quadrant's structural invariants.
func (q *Quadrant) Validate() error {
	if len(q.rows) == 0 {
		return fmt.Errorf("bga: %v quadrant has no ball lines", q.Side)
	}
	for y, r := range q.rows {
		if len(r.Nets) == 0 {
			return fmt.Errorf("bga: %v quadrant: line %d has no sites", q.Side, y+1)
		}
	}
	if q.NumNets() == 0 {
		return fmt.Errorf("bga: %v quadrant has no nets", q.Side)
	}
	return nil
}

// Package is a full four-quadrant BGA package.
type Package struct {
	Spec      Spec
	quadrants [NumSides]*Quadrant
	// ringHalf is the half-extent of the finger ring square, derived from
	// the widest quadrant.
	ringHalf float64
}

// NewPackage assembles a package from a spec and four quadrants (indexed by
// Side). A net may appear in at most one quadrant.
func NewPackage(spec Spec, quadrants [NumSides]*Quadrant) (*Package, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[netlist.ID]Side)
	var widest float64
	for _, side := range Sides() {
		q := quadrants[side]
		if q == nil {
			return nil, fmt.Errorf("bga: missing %v quadrant", side)
		}
		if q.Side != side {
			return nil, fmt.Errorf("bga: quadrant at index %v labeled %v", side, q.Side)
		}
		if err := q.Validate(); err != nil {
			return nil, err
		}
		if q.NumRows() != spec.Rows {
			return nil, fmt.Errorf("bga: %v quadrant has %d lines, spec says %d", side, q.NumRows(), spec.Rows)
		}
		for id := range q.ballOf {
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("bga: net %d placed in both %v and %v quadrants", id, prev, side)
			}
			seen[id] = side
		}
		fw := float64(q.NumSlots()) * spec.FingerPitch()
		if bw := maxRowWidth(q) * spec.BallPitch(); bw > fw {
			fw = bw
		}
		if fw > widest {
			widest = fw
		}
	}
	p := &Package{Spec: spec, quadrants: quadrants}
	p.ringHalf = widest/2 + spec.BallPitch()
	// Finite dimensions can still overflow once multiplied by the site
	// counts. The ring's diameter sizes the IR grid and the full extent
	// bounds every drawing, so both must be finite numbers.
	if ext := 2 * (p.ringHalf + float64(spec.Rows+1)*spec.BallPitch()); math.IsInf(ext, 0) {
		return nil, fmt.Errorf("bga: package ring overflows (half-width %g)", p.ringHalf)
	}
	return p, nil
}

func maxRowWidth(q *Quadrant) float64 {
	w := 0
	for y := 1; y <= q.NumRows(); y++ {
		if s := q.Row(y).Sites(); s > w {
			w = s
		}
	}
	return float64(w)
}

// Quadrant returns the quadrant on the given side.
func (p *Package) Quadrant(side Side) *Quadrant { return p.quadrants[side] }

// Locate finds the quadrant and ball of a net.
func (p *Package) Locate(id netlist.ID) (Side, BallRef, bool) {
	for _, side := range Sides() {
		if b, ok := p.quadrants[side].Ball(id); ok {
			return side, b, true
		}
	}
	return 0, BallRef{}, false
}

// NumNets returns the total number of nets placed across all quadrants.
func (p *Package) NumNets() int {
	n := 0
	for _, side := range Sides() {
		n += p.quadrants[side].NumNets()
	}
	return n
}

// RingHalf returns the half-extent of the finger ring, used by the global
// coordinate transform.
func (p *Package) RingHalf() float64 { return p.ringHalf }

// --- Local coordinates -----------------------------------------------------

// FingerCenter returns the local coordinates of finger slot a (1-based) in a
// quadrant with the given slot count: slots are centered on X = 0 at Y = 0.
func (p *Package) FingerCenter(q *Quadrant, slot int) geom.Pt {
	fp := p.Spec.FingerPitch()
	return geom.P((float64(slot)-float64(q.NumSlots()+1)/2)*fp, 0)
}

// BallCenter returns the local coordinates of ball site (x, y): rows are
// centered on X = 0 and line y sits at Y = -(n-y+1)·pitch.
func (p *Package) BallCenter(q *Quadrant, x, y int) geom.Pt {
	bp := p.Spec.BallPitch()
	sites := q.Row(y).Sites()
	return geom.P(
		(float64(x)-float64(sites+1)/2)*bp,
		-float64(q.NumRows()-y+1)*bp,
	)
}

// ViaSite returns the local coordinates of via candidate i (1-based,
// i = 1..Sites) on the via line of ball row y: the bottom-left corner of
// ball i.
func (p *Package) ViaSite(q *Quadrant, i, y int) geom.Pt {
	bp := p.Spec.BallPitch()
	c := p.BallCenter(q, i, y)
	return geom.P(c.X-bp/2, c.Y-bp/2)
}

// --- Global coordinates ----------------------------------------------------

// side direction vectors: away-from-die (d) and lateral (+X of the local
// frame) for each quadrant.
var sideDir = [NumSides]struct{ d, lat geom.Pt }{
	Bottom: {d: geom.P(0, -1), lat: geom.P(1, 0)},
	Right:  {d: geom.P(1, 0), lat: geom.P(0, 1)},
	Top:    {d: geom.P(0, 1), lat: geom.P(-1, 0)},
	Left:   {d: geom.P(-1, 0), lat: geom.P(0, -1)},
}

// ToGlobal converts a local quadrant point to package coordinates. The
// finger row (local Y = 0) maps onto the ring square of half-extent
// RingHalf; local -Y extends away from the die.
func (p *Package) ToGlobal(side Side, local geom.Pt) geom.Pt {
	sd := sideDir[side]
	// global = ringHalf·d + local.X·lat + (-local.Y)·d
	return sd.d.Scale(p.ringHalf - local.Y).Add(sd.lat.Scale(local.X))
}

// Bounds returns the bounding box of all package features in global
// coordinates.
func (p *Package) Bounds() geom.Rect {
	ext := p.ringHalf + (float64(p.Spec.Rows)+1)*p.Spec.BallPitch()
	return geom.R(-ext, -ext, ext, ext)
}
