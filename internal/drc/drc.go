// Package drc checks design rules on package plans. The paper motivates
// density minimization with "if the density is higher … a violation of
// design rules probably occurred"; this package makes that concrete: every
// gap between adjacent via sites has a physical width, a routed wire needs
// a physical pitch, and a segment whose balanced load exceeds its capacity
// is a design-rule violation. It also re-checks the package's static
// geometry rules and the monotonic-routability of an assignment.
package drc

import (
	"fmt"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/route"
)

// rules carries the routing design rules. Zero values take defaults derived
// from the package spec (wire width = via diameter / 2, spacing = wire
// width), which matches typical substrate technology files where the via
// land is about twice the trace width. Every program checks the defaults;
// the tests also check custom widths.
type rules struct {
	// wireWidth and wireSpace are the substrate trace width and minimal
	// spacing in µm.
	wireWidth, wireSpace float64
}

func (r rules) withDefaults(spec bga.Spec) rules {
	if r.wireWidth == 0 {
		r.wireWidth = spec.ViaDiameter / 2
	}
	if r.wireSpace == 0 {
		r.wireSpace = r.wireWidth
	}
	return r
}

// wirePitch is the center-to-center spacing routed wires need.
func (r rules) wirePitch() float64 { return r.wireWidth + r.wireSpace }

// Kind classifies a violation.
type Kind string

const (
	// KindSpec flags an inconsistent package geometry.
	KindSpec Kind = "spec"
	// KindCapacity flags a via-line segment loaded beyond its physical
	// wire capacity.
	KindCapacity Kind = "capacity"
	// KindLegality flags a non-routable (monotonic-rule-violating)
	// assignment.
	KindLegality Kind = "legality"
)

// Violation is one broken rule.
type Violation struct {
	Kind Kind
	// Where locates the violation ("bottom line 3 segment 2", …).
	Where string
	// Msg explains it.
	Msg string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Kind, v.Where, v.Msg)
}

// Report is the outcome of a check.
type Report struct {
	Violations []Violation
	// SegmentCapacity is the wire capacity of one ball-pitch gap under
	// the rules used.
	SegmentCapacity int
}

// OK reports whether the check passed clean.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) add(kind Kind, where, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{Kind: kind, Where: where, Msg: fmt.Sprintf(format, args...)})
}

// checkSpec verifies the static geometry rules of a package spec under the
// routing rules: the via must fit between balls with wire clearance, and a
// gap must carry at least one wire.
func checkSpec(spec bga.Spec, r rules) *Report {
	r = r.withDefaults(spec)
	rep := &Report{SegmentCapacity: segmentCapacity(spec, r)}
	if err := spec.Validate(); err != nil {
		rep.add(KindSpec, spec.Name, "%v", err)
		return rep
	}
	gap := spec.BallPitch() - spec.ViaDiameter
	if gap <= 0 {
		rep.add(KindSpec, spec.Name, "via ∅%g fills the ball pitch %g", spec.ViaDiameter, spec.BallPitch())
	}
	if rep.SegmentCapacity < 1 {
		rep.add(KindSpec, spec.Name,
			"segment gap %g µm cannot carry a single wire of pitch %g µm", gap, r.wirePitch())
	}
	if spec.FingerPitch() < r.wireWidth {
		rep.add(KindSpec, spec.Name,
			"finger pitch %g below wire width %g", spec.FingerPitch(), r.wireWidth)
	}
	return rep
}

// segmentCapacity returns how many wires fit between two adjacent via
// sites: the free width of the gap divided by the wire pitch.
func segmentCapacity(spec bga.Spec, r rules) int {
	r = r.withDefaults(spec)
	free := spec.BallPitch() - spec.ViaDiameter - r.wireSpace
	if free <= 0 {
		return 0
	}
	return int(free / r.wirePitch())
}

// Check runs the full design-rule check of an assignment under the default
// rules: static spec rules, monotonic routability, and per-segment wire
// capacity on every via line of every quadrant.
func Check(p *core.Problem, a *core.Assignment) (*Report, error) {
	return check(p, a, rules{})
}

func check(p *core.Problem, a *core.Assignment, r rules) (*Report, error) {
	spec := p.Pkg.Spec
	r = r.withDefaults(spec)
	rep := checkSpec(spec, r)

	if err := core.CheckMonotonic(p, a); err != nil {
		rep.add(KindLegality, "assignment", "%v", err)
		// Without legality the density model is undefined; report what
		// we have.
		return rep, nil
	}
	stats, err := route.Evaluate(p, a)
	if err != nil {
		return nil, err
	}
	cap := rep.SegmentCapacity
	for _, side := range bga.Sides() {
		qs := stats.Quadrants[side]
		for _, ls := range qs.Lines {
			for seg, load := range ls.SegmentLoad {
				if load > cap {
					rep.add(KindCapacity,
						fmt.Sprintf("%v line %d segment %d", side, ls.Y, seg),
						"%d wires in a gap that fits %d (pitch %g µm)", load, cap, r.wirePitch())
				}
			}
		}
	}
	return rep, nil
}
