package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPtArithmetic(t *testing.T) {
	p, q := P(1, 2), P(3, -4)
	if got := p.Add(q); got != P(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != P(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != P(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
}

func TestDistances(t *testing.T) {
	if d := P(0, 0).Dist(P(3, 4)); !almostEq(d, 5) {
		t.Errorf("Dist = %v, want 5", d)
	}
	if n := P(-3, 4).Norm(); !almostEq(n, 5) {
		t.Errorf("Norm = %v, want 5", n)
	}
}

func TestRectNormalization(t *testing.T) {
	r := R(5, 7, 1, 2)
	if r.Min != P(1, 2) || r.Max != P(5, 7) {
		t.Fatalf("R did not normalize corners: %v", r)
	}
	if !almostEq(r.W(), 4) || !almostEq(r.H(), 5) {
		t.Errorf("W/H = %v %v", r.W(), r.H())
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	cases := []struct {
		p    Pt
		want bool
	}{
		{P(5, 5), true},
		{P(0, 0), true},   // corner inclusive
		{P(10, 10), true}, // corner inclusive
		{P(10.001, 5), false},
		{P(-0.001, 5), false},
		{P(5, 11), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !r.Intersects(R(10, 10, 20, 20)) {
		t.Error("touching corner should intersect")
	}
	if r.Intersects(R(11, 0, 20, 10)) {
		t.Error("disjoint rects should not intersect")
	}
	if !r.Intersects(R(2, 2, 3, 3)) {
		t.Error("contained rect should intersect")
	}
}

func TestRectExpand(t *testing.T) {
	r := R(0, 0, 10, 10).Expand(2)
	if r.Min != P(-2, -2) || r.Max != P(12, 12) {
		t.Errorf("Expand = %v", r)
	}
	// Shrinking past degeneracy clamps to the center line.
	s := R(0, 0, 10, 2).Expand(-3)
	if s.Min.Y != s.Max.Y {
		t.Errorf("over-shrunk rect should be degenerate in Y: %v", s)
	}
	if s.Min.X != 3 || s.Max.X != 7 {
		t.Errorf("X sides wrong after shrink: %v", s)
	}
}

// TestSegIntersects checks which intersections count as proper crossings:
// only an interior X, never a touch or an overlap.
func TestSegIntersects(t *testing.T) {
	x := Seg{P(0, 0), P(10, 10)}
	cases := []struct {
		s      Seg
		proper bool
	}{
		{Seg{P(0, 10), P(10, 0)}, true},   // X crossing
		{Seg{P(10, 10), P(20, 0)}, false}, // endpoint touch
		{Seg{P(5, 5), P(20, 5)}, false},   // T touch at interior
		{Seg{P(11, 0), P(20, -5)}, false}, // disjoint
		{Seg{P(2, 2), P(8, 8)}, false},    // collinear overlap
	}
	for i, c := range cases {
		if got := x.CrossesProperly(c.s); got != c.proper {
			t.Errorf("case %d: CrossesProperly = %v, want %v", i, got, c.proper)
		}
	}
}

func TestPolylineLen(t *testing.T) {
	pl := Polyline{P(0, 0), P(3, 4), P(3, 10)}
	if !almostEq(pl.Len(), 11) {
		t.Errorf("Len = %v, want 11", pl.Len())
	}
	if Polyline(nil).Len() != 0 {
		t.Error("empty polyline length should be 0")
	}
}

func TestPolylineBounds(t *testing.T) {
	if _, ok := Polyline(nil).Bounds(); ok {
		t.Error("empty polyline should have no bounds")
	}
	pl := Polyline{P(1, 5), P(-2, 3), P(4, 4)}
	b, ok := pl.Bounds()
	if !ok || b != R(-2, 3, 4, 5) {
		t.Errorf("Bounds = %v,%v", b, ok)
	}
}

func TestPolylineSegments(t *testing.T) {
	pl := Polyline{P(0, 0), P(1, 0), P(1, 1)}
	var n int
	pl.Segments(func(s Seg) { n++ })
	if n != 2 {
		t.Errorf("Segments visited %d, want 2", n)
	}
}

func TestMonotonicDecreasingY(t *testing.T) {
	if !(Polyline{P(0, 5), P(1, 3), P(2, 3), P(3, 0)}).MonotonicDecreasingY() {
		t.Error("descending chain should be monotonic")
	}
	if (Polyline{P(0, 5), P(1, 3), P(2, 4)}).MonotonicDecreasingY() {
		t.Error("detouring chain should not be monotonic")
	}
	if !(Polyline{}).MonotonicDecreasingY() {
		t.Error("empty chain is trivially monotonic")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp misbehaves")
	}
}

// Property: distance is a metric (symmetry + triangle inequality) on random
// points.
func TestDistMetricProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := P(ax, ay), P(bx, by), P(cx, cy)
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true // skip degenerate/overflowing float inputs from quick
			}
		}
		sym := almostEq(a.Dist(b), b.Dist(a))
		tri := a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
		return sym && tri
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a proper crossing is symmetric.
func TestSegIntersectSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := Seg{P(rng.Float64()*10, rng.Float64()*10), P(rng.Float64()*10, rng.Float64()*10)}
		u := Seg{P(rng.Float64()*10, rng.Float64()*10), P(rng.Float64()*10, rng.Float64()*10)}
		if s.CrossesProperly(u) != u.CrossesProperly(s) {
			t.Fatalf("CrossesProperly not symmetric for %v %v", s, u)
		}
	}
}
