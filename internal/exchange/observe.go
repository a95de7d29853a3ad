package exchange

import (
	"fmt"

	"copack/internal/anneal"
	"copack/internal/obs"
)

// Telemetry key schema (all under the recorder handed to Options.Recorder):
//
//	exchange/restarts, exchange/winner_restart, exchange/legal    gauges
//	exchange/before/... and exchange/after/...                    Metrics gauges
//	exchange/restart<k>/moves_priced|committed|rejected|infeasible  counters
//	exchange/restart<k>/tracker_resyncs                           counter
//	exchange/restart<k>/cost_ir|cost_id|cost_omega|cost_total     Eq 3 gauges
//	anneal/restart<k>/...                                         anneal.Stats.Record
//	portfolio/...                                                 bandit gauges, only when Options.Portfolio is set
//
// Everything is emitted once, after the anneals finish, iterating restarts
// in index order on the calling goroutine — so the recording is
// deterministic and cannot perturb the run (the rng streams are long since
// closed). Per-restart keys are writer-unique by construction, satisfying
// the obs gauge discipline even though the anneals themselves ran
// concurrently.

// recordRun emits the whole run's telemetry to opt.Recorder (no-op when
// nil). Each restart's anneal is recorded against its arm's schedule.
func recordRun(opt Options, scheds []anneal.Schedule, runs []restart, res *Result) {
	rec := obs.OrNop(opt.Recorder)
	if _, nop := rec.(obs.NopRecorder); nop {
		return
	}
	xr := obs.WithPrefix(rec, "exchange/")
	xr.Set("restarts", float64(len(runs)))
	xr.Set("winner_restart", float64(res.Restart))
	xr.Set("legal", b2f(res.Legal))
	if res.Interrupted {
		xr.Add("interrupted", 1)
	}
	recordMetrics(obs.WithPrefix(xr, "before/"), res.Before)
	recordMetrics(obs.WithPrefix(xr, "after/"), res.After)
	for k, r := range runs {
		kr := obs.WithPrefix(xr, fmt.Sprintf("restart%d/", k))
		s := r.stats
		kr.Add("moves_priced", int64(s.Proposed))
		kr.Add("moves_committed", int64(s.Accepted))
		kr.Add("moves_rejected", int64(s.Proposed-s.Accepted))
		kr.Add("moves_infeasible", int64(s.Infeasible))
		kr.Add("tracker_resyncs", int64(r.st.trk.resyncs))
		kr.Set("cost_ir", r.terms.IR)
		kr.Set("cost_id", r.terms.ID)
		kr.Set("cost_omega", r.terms.Omega)
		kr.Set("cost_total", r.terms.Total)
		s.Record(obs.WithPrefix(rec, fmt.Sprintf("anneal/restart%d/", k)), scheds[r.arm])
	}
	out := res.Portfolio
	if out == nil {
		return
	}
	// The bandit's own keys: budget, winner, trace hash and per-arm pull /
	// cost / elimination summaries.
	pr := obs.WithPrefix(rec, "portfolio/")
	pr.Set("arms", float64(len(out.Arms)))
	pr.Set("budget", float64(out.Total))
	pr.Set("winner_arm", float64(out.BestArm))
	pr.Set("winner_restart", float64(out.BestRestart))
	pr.Set("best_cost", out.BestCost)
	pr.Add("trace_hash", int64(out.TraceHash()))
	for _, as := range out.Arms {
		ar := obs.WithPrefix(pr, fmt.Sprintf("arm%d/", as.Arm))
		ar.Set("pulls", float64(as.Pulls))
		if as.Pulls > 0 {
			// A never-pulled arm's best cost is +Inf — meaningless as a
			// gauge and unrepresentable in a JSON snapshot.
			ar.Set("best_cost", as.BestCost)
		}
		ar.Set("eliminated_round", float64(as.EliminatedRound))
	}
}

// recordMetrics emits one Metrics snapshot as gauges.
func recordMetrics(r obs.Recorder, m Metrics) {
	r.Set("proxy", m.Proxy)
	r.Set("id", float64(m.ID))
	r.Set("omega", float64(m.Omega))
	r.Set("max_density", float64(m.MaxDensity))
	r.Set("wirelength", m.Wirelength)
	r.Set("bond_length", m.BondLength)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
