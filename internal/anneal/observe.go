package anneal

import "copack/internal/obs"

// Record emits a finished run's telemetry to rec: activity counters
// (proposals, acceptances, rejections, infeasible samples), the cost
// endpoints and the temperature schedule points actually used. Callers
// namespace per restart with obs.WithPrefix (gauges are last-write-wins, so
// concurrent restarts must not share keys). Recording happens strictly
// after the anneal — nothing here can perturb the run, which is what keeps
// instrumented runs bit-identical to uninstrumented ones.
func (s Stats) Record(rec obs.Recorder, sched Schedule) {
	sched = sched.withDefaults()
	rec.Add("plateaus", int64(s.Plateaus))
	rec.Add("proposed", int64(s.Proposed))
	rec.Add("accepted", int64(s.Accepted))
	rec.Add("rejected", int64(s.Proposed-s.Accepted))
	rec.Add("uphill", int64(s.Uphill))
	rec.Add("infeasible", int64(s.Infeasible))
	if s.Interrupted {
		rec.Add("interrupted", 1)
	}
	rec.Set("final_cost", s.FinalCost)
	rec.Set("best_cost", s.BestCost)
	// The schedule points: the geometric cooling run is fully described by
	// its endpoints, the cooling factor and the plateau length; temp_last
	// is the lowest plateau the run actually entered (an early stall or a
	// cancellation shows up as temp_last well above temp_floor).
	rec.Set("temp_initial", sched.InitialTemp)
	rec.Set("temp_floor", sched.FinalTemp)
	rec.Set("temp_last", s.LastTemp)
	rec.Set("cooling", sched.Cooling)
	rec.Set("moves_per_temp", float64(sched.MovesPerTemp))
}
