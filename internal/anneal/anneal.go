// Package anneal provides the generic simulated-annealing engine behind the
// paper's finger/pad exchange method (Fig 14). The engine is
// domain-agnostic: callers supply a neighborhood as a Target that prices a
// random move and then commits or rejects it, and the engine runs a
// geometric cooling schedule with Metropolis acceptance.
//
// The paper's pseudocode writes its acceptance test as
// "Random(0,1) > exp(−ΔC/Temperature)"; as printed that accepts *worse*
// moves more often when they are much worse, which cannot be intended. We
// implement the standard Metropolis rule (accept uphill moves with
// probability exp(−ΔC/T)), which is what reference [7] (Kirkpatrick et al.)
// defines and what the paper cites.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"copack/internal/faultinject"
)

// Target is the state being annealed, driven through a price-then-commit
// contract: PriceMove samples a random neighbor move and returns the cost
// delta it would cause without mutating the target, and the engine then
// calls exactly one of CommitMove (the move was accepted: apply it now) or
// RejectMove (abandon it). Rejections — the vast majority at low
// temperature — cost one evaluation and no undo, and the pending move lives
// in the target, so pricing needs no revert closure.
type Target interface {
	// PriceMove samples a neighbor move and returns the cost delta it
	// would cause. ok=false means no move was sampled (for example, the
	// sampled move was illegal); the engine counts it as infeasible,
	// resolves nothing and tries again.
	PriceMove(rng *rand.Rand) (delta float64, ok bool)
	// CommitMove applies the last priced move.
	CommitMove()
	// RejectMove abandons the last priced move.
	RejectMove()
}

// Snapshotter is an optional Target extension: when implemented, the engine
// calls Snapshot every time the current state's cost is the best seen, so
// the caller can keep the best state instead of settling for the final one.
type Snapshotter interface {
	Snapshot()
}

// Schedule is a geometric cooling schedule.
type Schedule struct {
	// InitialTemp and FinalTemp bound the temperature range. The run
	// stops when the temperature cools below FinalTemp.
	InitialTemp, FinalTemp float64
	// Cooling multiplies the temperature after each plateau (0 < Cooling
	// < 1). Default 0.92.
	Cooling float64
	// MovesPerTemp is the number of proposals per plateau. Default 64.
	MovesPerTemp int
	// StallPlateaus stops the run early after this many consecutive
	// plateaus without an accepted move (0 disables).
	StallPlateaus int
}

// WithDefaults returns the schedule with every zero field replaced by the
// engine default — the exact schedule a zero-value Schedule runs. Callers
// deriving schedules from the defaults (e.g. tail segments of the standard
// cooling ramp) resolve them here instead of hardcoding the constants.
func (s Schedule) WithDefaults() Schedule { return s.withDefaults() }

func (s Schedule) withDefaults() Schedule {
	if s.InitialTemp == 0 {
		s.InitialTemp = 1.0
	}
	if s.FinalTemp == 0 {
		s.FinalTemp = 1e-4
	}
	if s.Cooling == 0 {
		s.Cooling = 0.92
	}
	if s.MovesPerTemp == 0 {
		s.MovesPerTemp = 64
	}
	return s
}

// Validate rejects schedules that cannot terminate.
func (s Schedule) Validate() error {
	s2 := s.withDefaults()
	switch {
	case s2.InitialTemp <= 0 || s2.FinalTemp <= 0:
		return fmt.Errorf("anneal: temperatures must be positive (got %g..%g)", s2.InitialTemp, s2.FinalTemp)
	case s2.FinalTemp > s2.InitialTemp:
		return fmt.Errorf("anneal: FinalTemp %g above InitialTemp %g", s2.FinalTemp, s2.InitialTemp)
	case s2.Cooling <= 0 || s2.Cooling >= 1:
		return fmt.Errorf("anneal: cooling factor %g outside (0,1)", s2.Cooling)
	case s2.MovesPerTemp < 1:
		return fmt.Errorf("anneal: MovesPerTemp %d < 1", s2.MovesPerTemp)
	case s2.StallPlateaus < 0:
		return fmt.Errorf("anneal: negative StallPlateaus")
	}
	return nil
}

// Stats reports what a run did.
type Stats struct {
	Plateaus   int
	Proposed   int // moves priced
	Infeasible int // proposals rejected before evaluation (ok=false)
	Accepted   int
	Uphill     int // accepted moves with positive delta
	FinalCost  float64
	BestCost   float64
	// LastTemp is the temperature of the last plateau the run entered
	// (the schedule's lowest reached point; 0 if no plateau ran).
	LastTemp float64
	// Interrupted reports that the run stopped before the schedule cooled
	// out because the context was cancelled (or a fault was injected).
	// The target's final state — and FinalCost — are whatever the run had
	// reached; BestCost and the Snapshotter contract still hold.
	Interrupted bool
	// Stopped is the human-readable reason for an interrupted run
	// ("context deadline exceeded", …); empty otherwise.
	Stopped string
}

// Minimize anneals the target from initialCost and returns run statistics.
// The target is left in its final state (cost FinalCost); a target that
// implements Snapshotter additionally receives a Snapshot call at every new
// best, so it can restore the BestCost state afterwards.
func Minimize(t Target, initialCost float64, s Schedule, rng *rand.Rand) (Stats, error) {
	return MinimizeContext(context.Background(), t, initialCost, s, rng)
}

// checkEvery is how many moves pass between mid-plateau cancellation
// checks. Small enough that a cancelled run stops within a handful of
// proposals, large enough that the context poll is free next to the
// proposal work.
const checkEvery = 16

// MinimizeContext is Minimize with cancellation: the run polls ctx at
// every plateau and every checkEvery moves within a plateau, and on
// cancellation stops cleanly, returning consistent Stats with Interrupted
// set instead of an error. The target keeps its current (annealed-so-far)
// state and any Snapshotter best is already captured — cancellation never
// loses work, it only cuts the schedule short. An uncancelled run is
// move-for-move identical to Minimize with the same seed: the polls never
// touch the rng.
func MinimizeContext(ctx context.Context, t Target, initialCost float64, s Schedule, rng *rand.Rand) (Stats, error) {
	if err := s.Validate(); err != nil {
		return Stats{}, err
	}
	s = s.withDefaults()
	cost := initialCost
	stats := Stats{FinalCost: initialCost, BestCost: initialCost}
	snapshotter, _ := t.(Snapshotter)
	if snapshotter != nil {
		snapshotter.Snapshot()
	}
	interrupt := func(err error) Stats {
		stats.Interrupted = true
		stats.Stopped = err.Error()
		stats.FinalCost = cost
		return stats
	}
	stall := 0
	for temp := s.InitialTemp; temp >= s.FinalTemp; temp *= s.Cooling {
		if err := faultinject.Fire(faultinject.AnnealPlateau); err != nil {
			return interrupt(err), nil
		}
		if err := ctx.Err(); err != nil {
			return interrupt(err), nil
		}
		stats.Plateaus++
		stats.LastTemp = temp
		acceptedHere := 0
		for move := 0; move < s.MovesPerTemp; move++ {
			if move%checkEvery == checkEvery-1 {
				if err := ctx.Err(); err != nil {
					return interrupt(err), nil
				}
			}
			delta, ok := t.PriceMove(rng)
			if !ok {
				stats.Infeasible++
				continue
			}
			stats.Proposed++
			accept := delta <= 0 || metropolis(rng.Float64(), -delta/temp)
			if !accept {
				t.RejectMove()
				continue
			}
			t.CommitMove()
			stats.Accepted++
			acceptedHere++
			if delta > 0 {
				stats.Uphill++
			}
			cost += delta
			if cost < stats.BestCost {
				stats.BestCost = cost
				if snapshotter != nil {
					snapshotter.Snapshot()
				}
			}
		}
		if acceptedHere == 0 {
			stall++
			if s.StallPlateaus > 0 && stall >= s.StallPlateaus {
				break
			}
		} else {
			stall = 0
		}
	}
	stats.FinalCost = cost
	return stats, nil
}

// expCut is where the Metropolis test stops needing math.Exp: exp(−44) ≈
// 7.8e−20 lies below 2⁻⁶³ ≈ 1.08e−19, the smallest nonzero draw of
// rand.Rand.Float64 (an Int63 over 2⁶³), so below the cut every nonzero
// draw u exceeds exp(x).
const expCut = -44

// metropolis reports u < exp(x), the acceptance test of an uphill move
// with x = −Δ/T and u the move's uniform draw. It returns the same answer
// for every u and x (NaN and −Inf included), but skips math.Exp where the
// draw alone decides. Over default plans of the Table 1 circuits (ψ 1–4,
// seeds 1–5), 17 % of the uphill tests land there, half of them where Exp
// returns a slow subnormal.
func metropolis(u, x float64) bool {
	if x < expCut && u != 0 {
		return false
	}
	return u < math.Exp(x)
}

// SplitSeed derives the seed of restart k from a base seed. Restart 0 keeps
// the base seed itself, so a single-restart run is move-for-move identical
// to a plain Minimize with that seed; higher restarts take consecutive
// seeds, which rand.NewSource scrambles into unrelated streams.
func SplitSeed(base int64, k int) int64 { return base + int64(k) }
