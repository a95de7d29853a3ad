package bga

import (
	"math"
	"testing"

	"copack/internal/geom"
	"copack/internal/netlist"
)

func validSpec() Spec {
	return Spec{
		Name:         "t",
		BallDiameter: 0.2,
		BallSpace:    1.2,
		ViaDiameter:  0.1,
		FingerWidth:  0.1,
		FingerHeight: 0.2,
		FingerSpace:  0.12,
		Rows:         3,
	}
}

func ids(xs ...int) []netlist.ID {
	out := make([]netlist.ID, len(xs))
	for i, x := range xs {
		out[i] = netlist.ID(x)
	}
	return out
}

// fig5Quadrant builds the quadrant of the paper's Fig 5 worked example:
// line y=3 holds nets 11,6,9 (one empty 4th site), y=2 holds 1,3,5,8 and
// y=1 holds 10,2,4,7,0.
func fig5Quadrant(t *testing.T, side Side) *Quadrant {
	t.Helper()
	q, err := NewQuadrant(side, []Row{
		{Nets: ids(11, 6, 9, int(NoNet))},
		{Nets: ids(1, 3, 5, 8)},
		{Nets: ids(10, 2, 4, 7, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.BallDiameter = 0 },
		func(s *Spec) { s.BallSpace = -1 },
		func(s *Spec) { s.ViaDiameter = 0 },
		func(s *Spec) { s.ViaDiameter = 5 }, // larger than pitch
		func(s *Spec) { s.FingerWidth = 0 },
		func(s *Spec) { s.FingerHeight = 0 },
		func(s *Spec) { s.FingerSpace = 0 },
		func(s *Spec) { s.Rows = 0 },
		// Non-finite dimensions: NaN fails every comparison, so a "<= 0"
		// test alone would accept it.
		func(s *Spec) { s.BallDiameter = math.NaN() },
		func(s *Spec) { s.BallDiameter = math.Inf(1) },
		func(s *Spec) { s.BallSpace = math.NaN() },
		func(s *Spec) { s.BallSpace = math.Inf(1) },
		func(s *Spec) { s.ViaDiameter = math.NaN() },
		func(s *Spec) { s.FingerWidth = math.NaN() },
		func(s *Spec) { s.FingerHeight = math.Inf(1) },
		func(s *Spec) { s.FingerSpace = math.NaN() },
		// Finite dimensions whose pitch overflows.
		func(s *Spec) { s.BallDiameter, s.BallSpace = 1e308, 1e308 },
		func(s *Spec) { s.FingerWidth, s.FingerSpace = 1e308, 1e308 },
	}
	for i, mut := range bad {
		s := validSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSpecPitches(t *testing.T) {
	s := validSpec()
	if got := s.BallPitch(); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("BallPitch = %v", got)
	}
	if got := s.FingerPitch(); math.Abs(got-0.22) > 1e-12 {
		t.Errorf("FingerPitch = %v", got)
	}
}

func TestQuadrantIndexing(t *testing.T) {
	q := fig5Quadrant(t, Bottom)
	if q.NumRows() != 3 {
		t.Fatalf("NumRows = %d", q.NumRows())
	}
	// topDown[0] must be line y=3.
	if q.NetAt(1, 3) != 11 || q.NetAt(2, 3) != 6 || q.NetAt(3, 3) != 9 {
		t.Errorf("line 3 wrong: %v", q.Row(3))
	}
	if q.NetAt(4, 3) != NoNet {
		t.Error("empty site should be NoNet")
	}
	if q.NetAt(1, 1) != 10 || q.NetAt(5, 1) != 0 {
		t.Errorf("line 1 wrong: %v", q.Row(1))
	}
	if q.NetAt(0, 1) != NoNet || q.NetAt(6, 1) != NoNet || q.NetAt(1, 4) != NoNet {
		t.Error("out-of-range NetAt should be NoNet")
	}
}

func TestQuadrantBallLookup(t *testing.T) {
	q := fig5Quadrant(t, Bottom)
	b, ok := q.Ball(6)
	if !ok || b != (BallRef{X: 2, Y: 3}) {
		t.Errorf("Ball(6) = %v,%v", b, ok)
	}
	if _, ok := q.Ball(99); ok {
		t.Error("found ball for unplaced net")
	}
	if q.NumNets() != 12 || q.NumSlots() != 12 {
		t.Errorf("NumNets/NumSlots = %d/%d", q.NumNets(), q.NumSlots())
	}
}

func TestQuadrantRowStats(t *testing.T) {
	q := fig5Quadrant(t, Bottom)
	if q.Row(3).Sites() != 4 || q.Row(3).Occupied() != 3 {
		t.Errorf("line 3 sites/occupied = %d/%d", q.Row(3).Sites(), q.Row(3).Occupied())
	}
	if q.Row(1).Sites() != 5 || q.Row(1).Occupied() != 5 {
		t.Errorf("line 1 sites/occupied = %d/%d", q.Row(1).Sites(), q.Row(1).Occupied())
	}
}

func TestQuadrantNetsOrder(t *testing.T) {
	q := fig5Quadrant(t, Bottom)
	want := ids(11, 6, 9, 1, 3, 5, 8, 10, 2, 4, 7, 0)
	got := q.Nets()
	if len(got) != len(want) {
		t.Fatalf("Nets len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nets = %v, want %v", got, want)
		}
	}
}

func TestNewQuadrantRejectsDuplicates(t *testing.T) {
	_, err := NewQuadrant(Bottom, []Row{
		{Nets: ids(1, 2)},
		{Nets: ids(2, 3)},
	})
	if err == nil {
		t.Error("duplicate ball placement accepted")
	}
	_, err = NewQuadrant(Bottom, []Row{{Nets: []netlist.ID{-7}}})
	if err == nil {
		t.Error("invalid negative id accepted")
	}
}

func TestNewQuadrantCopiesRows(t *testing.T) {
	rows := []Row{{Nets: ids(1, 2)}, {Nets: ids(3, 4)}}
	q, err := NewQuadrant(Bottom, rows)
	if err != nil {
		t.Fatal(err)
	}
	rows[0].Nets[0] = 99
	if q.NetAt(1, 2) != 1 {
		t.Error("quadrant aliases caller's slice")
	}
}

func TestQuadrantValidate(t *testing.T) {
	q := fig5Quadrant(t, Bottom)
	if err := q.Validate(); err != nil {
		t.Errorf("valid quadrant rejected: %v", err)
	}
	empty, _ := NewQuadrant(Bottom, nil)
	if err := empty.Validate(); err == nil {
		t.Error("quadrant with no lines accepted")
	}
	holes, _ := NewQuadrant(Bottom, []Row{{Nets: ids(int(NoNet))}})
	if err := holes.Validate(); err == nil {
		t.Error("quadrant with no nets accepted")
	}
}

func mkPackage(t *testing.T) *Package {
	t.Helper()
	var quads [NumSides]*Quadrant
	base := 0
	for _, side := range Sides() {
		q, err := NewQuadrant(side, []Row{
			{Nets: ids(base, base+1, base+2, int(NoNet))},
			{Nets: ids(base+3, base+4, base+5, base+6)},
			{Nets: ids(base+7, base+8, base+9, base+10, base+11)},
		})
		if err != nil {
			t.Fatal(err)
		}
		quads[side] = q
		base += 12
	}
	p, err := NewPackage(validSpec(), quads)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPackageValidation(t *testing.T) {
	p := mkPackage(t)
	if p.NumNets() != 48 {
		t.Errorf("NumNets = %d", p.NumNets())
	}

	// Duplicate net across quadrants.
	var quads [NumSides]*Quadrant
	for _, side := range Sides() {
		q, _ := NewQuadrant(side, []Row{{Nets: ids(1)}, {Nets: ids(2)}, {Nets: ids(3)}})
		quads[side] = q
	}
	if _, err := NewPackage(validSpec(), quads); err == nil {
		t.Error("net shared across quadrants accepted")
	}

	// Missing quadrant.
	quads2 := quads
	quads2[Left] = nil
	if _, err := NewPackage(validSpec(), quads2); err == nil {
		t.Error("missing quadrant accepted")
	}

	// Wrong row count vs spec.
	q5, _ := NewQuadrant(Bottom, []Row{{Nets: ids(100)}})
	quads3 := quads
	quads3[Bottom] = q5
	if _, err := NewPackage(validSpec(), quads3); err == nil {
		t.Error("row-count mismatch accepted")
	}

	// Mislabeled quadrant.
	qr, _ := NewQuadrant(Right, []Row{{Nets: ids(200)}, {Nets: ids(201)}, {Nets: ids(202)}})
	quads4 := quads
	quads4[Bottom] = qr
	if _, err := NewPackage(validSpec(), quads4); err == nil {
		t.Error("mislabeled quadrant accepted")
	}

	// A valid spec whose ring overflows once multiplied by the site
	// counts: the ring's diameter must be a finite number.
	huge := validSpec()
	huge.BallDiameter, huge.BallSpace = 1e308, 1e306
	if err := huge.Validate(); err != nil {
		t.Fatalf("huge but finite spec rejected by Validate: %v", err)
	}
	if _, err := NewPackage(huge, mkPackage(t).quadrants); err == nil {
		t.Error("package with an overflowing ring accepted")
	}
}

func TestLocate(t *testing.T) {
	p := mkPackage(t)
	side, b, ok := p.Locate(13) // second quadrant (Right), net base+1 on top line
	if !ok || side != Right || b != (BallRef{X: 2, Y: 3}) {
		t.Errorf("Locate(13) = %v,%v,%v", side, b, ok)
	}
	if _, _, ok := p.Locate(999); ok {
		t.Error("located unplaced net")
	}
}

func TestLocalCoordinates(t *testing.T) {
	p := mkPackage(t)
	q := p.Quadrant(Bottom)
	bp := p.Spec.BallPitch()

	// Line y=3 (highest) sits one pitch below the fingers.
	c := p.BallCenter(q, 1, 3)
	if math.Abs(c.Y - -bp) > 1e-9 {
		t.Errorf("line 3 Y = %v, want %v", c.Y, -bp)
	}
	// Line y=1 (outermost) sits n pitches below.
	c1 := p.BallCenter(q, 1, 1)
	if math.Abs(c1.Y- -3*bp) > 1e-9 {
		t.Errorf("line 1 Y = %v, want %v", c1.Y, -3*bp)
	}
	// Rows are centered: site (sites+1)/2 would be at X=0; symmetric ends.
	l := p.BallCenter(q, 1, 1).X
	r := p.BallCenter(q, 5, 1).X
	if math.Abs(l+r) > 1e-9 {
		t.Errorf("line 1 not centered: %v %v", l, r)
	}
	// Via site is the ball's bottom-left corner.
	v := p.ViaSite(q, 2, 2)
	b := p.BallCenter(q, 2, 2)
	if math.Abs(v.X-(b.X-bp/2)) > 1e-9 || math.Abs(v.Y-(b.Y-bp/2)) > 1e-9 {
		t.Errorf("via site = %v, ball = %v", v, b)
	}
	// Fingers are centered at Y=0.
	f1 := p.FingerCenter(q, 1)
	fn := p.FingerCenter(q, q.NumSlots())
	if f1.Y != 0 || fn.Y != 0 || math.Abs(f1.X+fn.X) > 1e-9 {
		t.Errorf("fingers not centered: %v %v", f1, fn)
	}
	// Finger pitch.
	f2 := p.FingerCenter(q, 2)
	if math.Abs(f2.X-f1.X-p.Spec.FingerPitch()) > 1e-9 {
		t.Errorf("finger pitch = %v", f2.X-f1.X)
	}
}

func TestToGlobalOrientation(t *testing.T) {
	p := mkPackage(t)
	h := p.RingHalf()
	pt := geom.P(2, -3) // 2 right of center, 3 away from die

	cases := []struct {
		side Side
		want geom.Pt
	}{
		{Bottom, geom.P(2, -(h + 3))},
		{Right, geom.P(h+3, 2)},
		{Top, geom.P(-2, h+3)},
		{Left, geom.P(-(h + 3), -2)},
	}
	for _, c := range cases {
		got := p.ToGlobal(c.side, pt)
		if got.Dist(c.want) > 1e-9 {
			t.Errorf("ToGlobal(%v, %v) = %v, want %v", c.side, pt, got, c.want)
		}
	}
}

func TestToGlobalPreservesDistances(t *testing.T) {
	p := mkPackage(t)
	a, b := geom.P(1, -2), geom.P(-3, -5)
	for _, side := range Sides() {
		ga, gb := p.ToGlobal(side, a), p.ToGlobal(side, b)
		if math.Abs(ga.Dist(gb)-a.Dist(b)) > 1e-9 {
			t.Errorf("%v: transform not rigid", side)
		}
	}
}

func TestBoundsAndExtent(t *testing.T) {
	p := mkPackage(t)
	ext := p.MaxExtent()
	if ext <= p.RingHalf() {
		t.Errorf("MaxExtent %v should exceed ring half %v", ext, p.RingHalf())
	}
	bb := p.Bounds()
	if !bb.Contains(geom.P(ext, 0)) || !bb.Contains(geom.P(0, -ext)) {
		t.Error("Bounds does not contain extreme balls")
	}
}

func TestSideString(t *testing.T) {
	if Bottom.String() != "bottom" || Right.String() != "right" ||
		Top.String() != "top" || Left.String() != "left" {
		t.Error("side names wrong")
	}
	if Side(9).String() != "Side(9)" {
		t.Error("unknown side String wrong")
	}
	if len(Sides()) != NumSides {
		t.Error("Sides() length mismatch")
	}
}
