// Package geom provides the small set of planar geometry primitives used by
// the package-routing and IR-drop models: points, rectangles, segments and
// polylines with Euclidean and Manhattan metrics.
//
// All coordinates are float64 micrometres (µm) unless a caller documents
// otherwise; the package itself is unit-agnostic.
package geom

import (
	"fmt"
	"math"
)

// Pt is a point (or free vector) in the plane.
type Pt struct {
	X, Y float64
}

// P is shorthand for constructing a Pt.
func P(x, y float64) Pt { return Pt{X: x, Y: y} }

// Add returns p + q.
func (p Pt) Add(q Pt) Pt { return Pt{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Pt) Sub(q Pt) Pt { return Pt{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Pt) Scale(k float64) Pt { return Pt{p.X * k, p.Y * k} }

// Cross returns the z component of the cross product p×q.
func (p Pt) Cross(q Pt) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p treated as a vector.
func (p Pt) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Pt) Dist(q Pt) float64 { return p.Sub(q).Norm() }

// String implements fmt.Stringer.
func (p Pt) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max the
// upper-right corner; a Rect is well formed when Min.X <= Max.X and
// Min.Y <= Max.Y.
type Rect struct {
	Min, Max Pt
}

// R constructs a well-formed Rect from any two opposite corners.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Pt{x0, y0}, Pt{x1, y1}}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the height of r.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Pt) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersects reports whether r and s share any point (boundary inclusive).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Expand returns r grown by d on every side (shrunk for negative d; the
// result is clamped to a degenerate rectangle at the center rather than
// becoming ill-formed).
func (r Rect) Expand(d float64) Rect {
	out := Rect{Pt{r.Min.X - d, r.Min.Y - d}, Pt{r.Max.X + d, r.Max.Y + d}}
	if out.Min.X > out.Max.X {
		c := (r.Min.X + r.Max.X) / 2
		out.Min.X, out.Max.X = c, c
	}
	if out.Min.Y > out.Max.Y {
		c := (r.Min.Y + r.Max.Y) / 2
		out.Min.Y, out.Max.Y = c, c
	}
	return out
}

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("[%v-%v]", r.Min, r.Max) }

// Seg is a line segment from A to B.
type Seg struct {
	A, B Pt
}

// Len returns the Euclidean length of s.
func (s Seg) Len() float64 { return s.A.Dist(s.B) }

// orientation returns +1/-1/0 for counter-clockwise, clockwise and collinear
// triples.
func orientation(a, b, c Pt) int {
	v := b.Sub(a).Cross(c.Sub(a))
	const eps = 1e-12
	switch {
	case v > eps:
		return 1
	case v < -eps:
		return -1
	default:
		return 0
	}
}

// CrossesProperly reports whether s and t intersect at exactly one interior
// point of both segments (shared endpoints and collinear touches do not
// count). This is the test routers use for true wire crossings.
func (s Seg) CrossesProperly(t Seg) bool {
	o1 := orientation(s.A, s.B, t.A)
	o2 := orientation(s.A, s.B, t.B)
	o3 := orientation(t.A, t.B, s.A)
	o4 := orientation(t.A, t.B, s.B)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// Polyline is an open chain of points.
type Polyline []Pt

// Len returns the total Euclidean length of the chain.
func (pl Polyline) Len() float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		total += pl[i-1].Dist(pl[i])
	}
	return total
}

// Bounds returns the bounding rectangle of the chain; ok is false for an
// empty polyline.
func (pl Polyline) Bounds() (Rect, bool) {
	if len(pl) == 0 {
		return Rect{}, false
	}
	r := Rect{pl[0], pl[0]}
	for _, p := range pl[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r, true
}

// Segments calls fn for each consecutive segment of the chain.
func (pl Polyline) Segments(fn func(Seg)) {
	for i := 1; i < len(pl); i++ {
		fn(Seg{pl[i-1], pl[i]})
	}
}

// MonotonicDecreasingY reports whether the chain's Y coordinates never
// increase (the monotonic-routing property on one quadrant: the wire
// descends from the finger row toward the ball rows and never detours back).
func (pl Polyline) MonotonicDecreasingY() bool {
	for i := 1; i < len(pl); i++ {
		if pl[i].Y > pl[i-1].Y+1e-12 {
			return false
		}
	}
	return true
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
