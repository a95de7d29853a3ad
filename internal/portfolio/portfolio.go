// Package portfolio is a deterministic bandit layer over the annealing
// engine: it splits a restart budget across a declared set of arms
// (schedule variants × move-range knobs × warm-start engines) with a
// seeded successive-halving/UCB policy, so the budget concentrates on the
// arms whose observed search statistics look best — without giving up one
// bit of replayability.
//
// Three rules keep the bandit compatible with this repository's
// golden/determinism matrix:
//
//  1. Arm scoring reads only deterministic inputs: each pull's final Eq 3
//     cost and the annealer's acceptance/plateau counters (the same
//     numbers internal/obs records). Wall clocks and math/rand are banned
//     from every allocation decision.
//
//  2. Every pull is seeded by its global restart index through
//     anneal.SplitSeed: pull k of a run seeded s anneals with seed
//     SplitSeed(s, k) regardless of which arm owns it, so a full run is a
//     pure function of (instance, seed, arm set) and replays move for
//     move.
//
//  3. Rounds are barriers. Pulls inside a round run concurrently through
//     internal/parallel with index-addressed results; the halving decision
//     between rounds reduces those results in index order on the calling
//     goroutine. Worker count changes the wall clock, never the trace.
//
// A single-arm portfolio degenerates to plain multi-start annealing: all
// budget lands on the arm in round 0, pulls take restart indices 0..B−1 in
// order, and the winner is the lowest-cost pull with ties to the lower
// index. The exchange runs its plain Options.Restarts this way, so Run is
// its one restart loop.
package portfolio

import (
	"context"
	"hash/fnv"
	"math"
	"sort"

	"copack/internal/anneal"
	"copack/internal/parallel"
)

// DefaultExplore is the UCB exploration coefficient used when
// Config.Explore is zero. The bonus is scaled by the spread of the alive
// arms' best costs, so the default behaves consistently across instances.
const DefaultExplore = 0.25

// RunFunc executes one pull: anneal the target once for the given arm,
// seeded anneal.SplitSeed(seed, restart) where restart is the pull's global
// restart index, and return the run's final from-scratch cost plus the
// annealer's stats. It is called concurrently (up to the worker bound) and
// must be safe for that; calls for distinct restart indices must not share
// mutable state.
type RunFunc func(ctx context.Context, arm, restart int) (cost float64, stats anneal.Stats, err error)

// Alloc is one entry of the arm-allocation trace: which arm got which
// global restart index in which round, and what the pull observed. The
// trace is the bandit's replay log — two runs of the same (instance, seed,
// arm set) produce identical traces at any worker count, which
// TraceHash pins.
type Alloc struct {
	// Round is the successive-halving round the pull ran in.
	Round int `json:"round"`
	// Arm indexes Config.Arms.
	Arm int `json:"arm"`
	// Restart is the pull's global restart index; its rng seed is
	// anneal.SplitSeed(Config.Seed, Restart).
	Restart int `json:"restart"`
	// Seed is that derived seed, recorded for the replay log.
	Seed int64 `json:"seed"`
	// Cost is the pull's final from-scratch cost (the quantity the bandit
	// minimizes).
	Cost float64 `json:"cost"`
	// Annealer counters (the deterministic search statistics the scoring
	// reads; see anneal.Stats).
	Proposed    int  `json:"proposed"`
	Accepted    int  `json:"accepted"`
	Uphill      int  `json:"uphill"`
	Plateaus    int  `json:"plateaus"`
	Infeasible  int  `json:"infeasible"`
	Interrupted bool `json:"interrupted,omitempty"`
}

// ArmStats summarizes one arm's pulls.
type ArmStats struct {
	// Arm indexes Config.Arms.
	Arm int `json:"arm"`
	// Pulls is how many restarts the arm received.
	Pulls int `json:"pulls"`
	// BestCost is the lowest cost over the arm's pulls (+Inf when never
	// pulled) and BestRestart that pull's global restart index (−1).
	BestCost    float64 `json:"best_cost"`
	BestRestart int     `json:"best_restart"`
	// Summed annealer counters over the arm's pulls.
	Proposed int `json:"proposed"`
	Accepted int `json:"accepted"`
	Uphill   int `json:"uphill"`
	Plateaus int `json:"plateaus"`
	// EliminatedRound is the round after which the halving cut the arm
	// (−1 when the arm survived to the end).
	EliminatedRound int `json:"eliminated_round"`
}

// Outcome reports a portfolio run.
type Outcome struct {
	// Trace lists every pull in allocation order (round-major, then
	// round-robin across the alive arms). len(Trace) == Total.
	Trace []Alloc `json:"trace"`
	// Arms summarizes each arm, indexed like Config.Arms.
	Arms []ArmStats `json:"arms"`
	// BestArm/BestRestart/BestCost identify the winning pull: the lowest
	// cost over the whole trace, ties to the lower restart index.
	BestArm     int     `json:"best_arm"`
	BestRestart int     `json:"best_restart"`
	BestCost    float64 `json:"best_cost"`
	// Total is the number of pulls executed (== Config.Budget).
	Total int `json:"total"`
}

// TraceHash folds the full allocation trace — rounds, arm choices, restart
// indices, seeds, cost bits and every counter — into an FNV-64a hash. Two
// runs of the same (instance, seed, arm set) must produce equal hashes at
// any worker count and GOMAXPROCS; the replay tests pin exact values.
func (o *Outcome) TraceHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, al := range o.Trace {
		w64(uint64(al.Round))
		w64(uint64(al.Arm))
		w64(uint64(al.Restart))
		w64(uint64(al.Seed))
		w64(math.Float64bits(al.Cost))
		w64(uint64(al.Proposed))
		w64(uint64(al.Accepted))
		w64(uint64(al.Uphill))
		w64(uint64(al.Plateaus))
		w64(uint64(al.Infeasible))
		if al.Interrupted {
			w64(1)
		} else {
			w64(0)
		}
	}
	return h.Sum64()
}

// rounds returns the successive-halving round count for n arms: enough
// halvings to reach a single arm, plus the final exploit round. One arm
// means one round (all budget, no halving).
func rounds(n int) int {
	r := 1
	for m := n; m > 1; m = (m + 1) / 2 {
		r++
	}
	return r
}

// Run executes the bandit: Config.Budget pulls of run, allocated across
// the arms by successive halving with a UCB-style exploration bonus.
// Round r receives remaining/(rounds−r) pulls (the final round takes
// everything left), spread round-robin over the alive arms in arm-index
// order; after each non-final round the alive set is halved to the
// best-scoring ceil(alive/2) arms. All decisions are pure functions of the
// costs and counters the pulls return — see the package comment for the
// determinism argument. A run error (lowest restart index wins) aborts the
// whole portfolio.
func Run(ctx context.Context, cfg Config, workers int, run RunFunc) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Arms)
	explore := cfg.Explore
	if explore == 0 {
		explore = DefaultExplore
	}
	out := &Outcome{
		Arms:        make([]ArmStats, n),
		BestArm:     -1,
		BestRestart: -1,
		BestCost:    math.Inf(1),
	}
	for i := range out.Arms {
		out.Arms[i] = ArmStats{Arm: i, BestCost: math.Inf(1), BestRestart: -1, EliminatedRound: -1}
	}
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	nRounds := rounds(n)
	remaining := cfg.Budget
	k := 0 // global restart counter
	for r := 0; r < nRounds && remaining > 0; r++ {
		share := remaining / (nRounds - r)
		if share < 1 {
			share = 1
		}
		if r == nRounds-1 || share > remaining {
			share = remaining
		}
		// Allocate the round's pulls round-robin across the alive arms so
		// a truncated share still spreads fairly, lowest arm index first.
		allocs := make([]Alloc, 0, share)
		for len(allocs) < share {
			for _, a := range alive {
				if len(allocs) == share {
					break
				}
				allocs = append(allocs, Alloc{Round: r, Arm: a, Restart: k, Seed: anneal.SplitSeed(cfg.Seed, k)})
				k++
			}
		}
		remaining -= len(allocs)

		// Execute the round. Results land at their allocation index, so
		// the reduction below is scheduling-independent.
		costs := make([]float64, len(allocs))
		stats := make([]anneal.Stats, len(allocs))
		err := parallel.ForEachErr(ctx, len(allocs), workers, func(ctx context.Context, i int) error {
			c, s, err := run(ctx, allocs[i].Arm, allocs[i].Restart)
			if err != nil {
				return err
			}
			costs[i], stats[i] = c, s
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Reduce in allocation order (ascending restart index), so the
		// strict < below breaks winner ties toward the lower index.
		for i := range allocs {
			al := &allocs[i]
			s := stats[i]
			al.Cost = costs[i]
			al.Proposed, al.Accepted, al.Uphill = s.Proposed, s.Accepted, s.Uphill
			al.Plateaus, al.Infeasible, al.Interrupted = s.Plateaus, s.Infeasible, s.Interrupted
			as := &out.Arms[al.Arm]
			as.Pulls++
			as.Proposed += s.Proposed
			as.Accepted += s.Accepted
			as.Uphill += s.Uphill
			as.Plateaus += s.Plateaus
			if al.Cost < as.BestCost {
				as.BestCost, as.BestRestart = al.Cost, al.Restart
			}
			// The first pull always names a winner, so a run whose costs
			// are all +Inf or NaN still has one.
			if out.BestRestart < 0 || al.Cost < out.BestCost {
				out.BestCost, out.BestArm, out.BestRestart = al.Cost, al.Arm, al.Restart
			}
			out.Trace = append(out.Trace, *al)
		}

		if r < nRounds-1 && len(alive) > 1 && remaining > 0 {
			alive = halve(out, alive, r, explore)
		}
	}
	out.Total = k
	return out, nil
}

// halve keeps the best-scoring ceil(len(alive)/2) arms. The score of a
// pulled arm is its best cost minus a UCB exploration bonus — spread-scaled
// optimism for rarely-pulled arms plus an acceptance-rate term (an arm
// whose anneals still accept many moves has more unexploited search left
// than one that froze early). Never-pulled arms score −Inf so they are
// explored before any observed arm is re-trusted. Ties break to the lower
// arm index; the survivor list stays in ascending arm order.
func halve(out *Outcome, alive []int, round int, explore float64) []int {
	lo, hi := math.Inf(1), math.Inf(-1)
	totalPulls := 0
	for _, a := range alive {
		as := &out.Arms[a]
		totalPulls += as.Pulls
		if as.Pulls == 0 {
			continue
		}
		if as.BestCost < lo {
			lo = as.BestCost
		}
		if as.BestCost > hi {
			hi = as.BestCost
		}
	}
	spread := hi - lo
	if spread < 0 || math.IsInf(spread, 0) || math.IsNaN(spread) {
		spread = 0
	}
	scores := make([]float64, len(alive))
	for i, a := range alive {
		as := &out.Arms[a]
		if as.Pulls == 0 {
			scores[i] = math.Inf(-1)
			continue
		}
		bonus := math.Sqrt(math.Log(float64(totalPulls+1)) / float64(as.Pulls))
		acceptRate := 0.0
		if as.Proposed > 0 {
			acceptRate = float64(as.Accepted) / float64(as.Proposed)
		}
		scores[i] = as.BestCost - explore*spread*(bonus+acceptRate)
	}
	order := make([]int, len(alive))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		if scores[order[x]] != scores[order[y]] {
			return scores[order[x]] < scores[order[y]]
		}
		return alive[order[x]] < alive[order[y]]
	})
	keep := (len(alive) + 1) / 2
	next := make([]int, 0, keep)
	for _, i := range order[:keep] {
		next = append(next, alive[i])
	}
	sort.Ints(next)
	kept := make(map[int]bool, len(next))
	for _, a := range next {
		kept[a] = true
	}
	for _, a := range alive {
		if !kept[a] {
			out.Arms[a].EliminatedRound = round
		}
	}
	return next
}
