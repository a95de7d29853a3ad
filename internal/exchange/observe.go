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
//
// Everything is emitted once, after the anneals finish, iterating restarts
// in index order on the calling goroutine — so the recording is
// deterministic and cannot perturb the run (the rng streams are long since
// closed). Per-restart keys are writer-unique by construction, satisfying
// the obs gauge discipline even though the anneals themselves ran
// concurrently.

// recordRun emits the whole run's telemetry to opt.Recorder (no-op when
// nil). Every restart's anneal is recorded against sched, the schedule
// the restarts ran.
func recordRun(opt Options, sched anneal.Schedule, runs []restart, res *Result) {
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
		s.Record(obs.WithPrefix(rec, fmt.Sprintf("anneal/restart%d/", k)), sched)
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
