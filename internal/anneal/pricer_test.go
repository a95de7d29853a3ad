package anneal

import (
	"testing"
)

// TestDeltaPricerInfeasible checks the engine counts a PriceMove ok=false
// as infeasible and keeps going, without calling Commit or Reject.
type stubbornPricer struct {
	quadratic
	refuse  int
	refused int
	// resolved counts CommitMove and RejectMove calls.
	resolved int
}

func (q *stubbornPricer) PriceMove(rng *Rand) (float64, bool) {
	if q.refused < q.refuse {
		q.refused++
		rng.Intn(2) // consume something so the stream advances
		return 0, false
	}
	return q.quadratic.PriceMove(rng)
}

func (q *stubbornPricer) CommitMove() { q.resolved++; q.quadratic.CommitMove() }
func (q *stubbornPricer) RejectMove() { q.resolved++ }

func TestDeltaPricerInfeasible(t *testing.T) {
	q := &stubbornPricer{refuse: 10}
	q.x = []int{3, -2}
	st, err := Minimize(q, q.cost(), Schedule{InitialTemp: 1, FinalTemp: 0.5, Cooling: 0.5, MovesPerTemp: 20}, NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Infeasible != 10 {
		t.Errorf("Infeasible = %d, want 10", st.Infeasible)
	}
	if st.Proposed != 30 {
		t.Errorf("Proposed = %d, want 30 (2 plateaus × 20 moves − 10 refused)", st.Proposed)
	}
	if q.resolved != st.Proposed {
		t.Errorf("%d commits+rejects for %d priced moves", q.resolved, st.Proposed)
	}
}
