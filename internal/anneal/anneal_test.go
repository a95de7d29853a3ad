package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// quadratic anneals a vector of integers toward zero; each move perturbs
// one coordinate by ±1. Cost = Σ x².
type quadratic struct {
	x []int
	// pendIdx/pendVal is the last priced move: x[pendIdx] becomes pendVal.
	pendIdx, pendVal int
}

func (q *quadratic) cost() float64 {
	var c float64
	for _, v := range q.x {
		c += float64(v * v)
	}
	return c
}

func (q *quadratic) PriceMove(rng *rand.Rand) (float64, bool) {
	i := rng.Intn(len(q.x))
	d := 1
	if rng.Intn(2) == 0 {
		d = -1
	}
	nv := q.x[i] + d
	q.pendIdx, q.pendVal = i, nv
	return float64(nv*nv - q.x[i]*q.x[i]), true
}

func (q *quadratic) CommitMove() { q.x[q.pendIdx] = q.pendVal }
func (q *quadratic) RejectMove() {}

func TestMinimizeConverges(t *testing.T) {
	q := &quadratic{x: []int{9, -7, 5, 12, -3}}
	rng := rand.New(rand.NewSource(1))
	st, err := Minimize(q, q.cost(), Schedule{InitialTemp: 50, FinalTemp: 1e-3, Cooling: 0.9, MovesPerTemp: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if q.cost() > 4 {
		t.Errorf("final state %v (cost %v) far from optimum", q.x, q.cost())
	}
	if math.Abs(st.FinalCost-q.cost()) > 1e-9 {
		t.Errorf("tracked cost %v != recomputed %v", st.FinalCost, q.cost())
	}
	if st.BestCost > st.FinalCost+1e-9 {
		t.Errorf("best %v worse than final %v", st.BestCost, st.FinalCost)
	}
	if st.Accepted == 0 || st.Proposed == 0 {
		t.Errorf("no activity: %+v", st)
	}
}

func TestUphillMovesHappenWhenHot(t *testing.T) {
	q := &quadratic{x: []int{0, 0, 0}} // at the optimum: any move is uphill
	rng := rand.New(rand.NewSource(2))
	st, err := Minimize(q, 0, Schedule{InitialTemp: 100, FinalTemp: 50, Cooling: 0.99, MovesPerTemp: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if st.Uphill == 0 {
		t.Error("hot annealer never accepted an uphill move")
	}
}

func TestColdRunIsGreedy(t *testing.T) {
	// At near-zero temperature the engine must behave greedily: from the
	// optimum, no uphill move is ever accepted.
	q := &quadratic{x: []int{0, 0}}
	rng := rand.New(rand.NewSource(3))
	st, err := Minimize(q, 0, Schedule{InitialTemp: 1e-9, FinalTemp: 1e-10, Cooling: 0.5, MovesPerTemp: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if st.Uphill != 0 {
		t.Errorf("cold annealer accepted %d uphill moves", st.Uphill)
	}
	if q.cost() != 0 {
		t.Errorf("cold annealer drifted to %v", q.x)
	}
}

// rejector never offers a feasible move.
type rejector struct{}

func (rejector) PriceMove(*rand.Rand) (float64, bool) { return 0, false }
func (rejector) CommitMove()                          { panic("commit without a priced move") }
func (rejector) RejectMove()                          { panic("reject without a priced move") }

func TestInfeasibleProposalsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st, err := Minimize(rejector{}, 5, Schedule{InitialTemp: 1, FinalTemp: 0.5, Cooling: 0.9, MovesPerTemp: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if st.Proposed != 0 || st.Infeasible == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.FinalCost != 5 {
		t.Errorf("cost changed with no feasible moves: %v", st.FinalCost)
	}
}

func TestStallStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	long := Schedule{InitialTemp: 1, FinalTemp: 1e-12, Cooling: 0.99, MovesPerTemp: 5, StallPlateaus: 3}
	st, err := Minimize(rejector{}, 1, long, rng)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plateaus != 3 {
		t.Errorf("stalled run used %d plateaus, want 3", st.Plateaus)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Schedule{
		{InitialTemp: -1, FinalTemp: 1},
		{InitialTemp: 1, FinalTemp: 2},
		{InitialTemp: 1, FinalTemp: 0.5, Cooling: 1.5},
		{InitialTemp: 1, FinalTemp: 0.5, Cooling: 0.9, MovesPerTemp: -2},
		{InitialTemp: 1, FinalTemp: 0.5, StallPlateaus: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d accepted: %+v", i, s)
		}
	}
	if err := (Schedule{}).Validate(); err != nil {
		t.Errorf("zero schedule (defaults) rejected: %v", err)
	}
	if _, err := Minimize(rejector{}, 0, Schedule{InitialTemp: -5}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Minimize accepted invalid schedule")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func(seed int64) (Stats, []int) {
		q := &quadratic{x: []int{4, -6, 2}}
		st, err := Minimize(q, q.cost(), Schedule{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return st, q.x
	}
	s1, x1 := run(7)
	s2, x2 := run(7)
	if s1 != s2 {
		t.Errorf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Errorf("same seed, different state: %v vs %v", x1, x2)
		}
	}
}
