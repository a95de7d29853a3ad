package service

import (
	"encoding/json"
	"strings"

	"copack"
	"copack/internal/design"
	"copack/internal/obs"
)

// PlanResponse is the JSON body of a successful plan: every field except
// Metrics is a pure function of (canonical design, normalized options),
// which is what makes the body byte-stable across queue interleavings and
// worker counts. Metrics, when requested, carries wall-clock durations
// and is exempt from that guarantee (except when served from cache, where
// the original bytes replay).
type PlanResponse struct {
	// Solution is the planned instance in the design text format with
	// one order directive per side — directly consumable by fpassign -in
	// and ReadSolution.
	Solution string `json:"solution"`
	// Algorithm and Seed echo the normalized request.
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed"`
	// Initial and Final are the routing evaluations before and after the
	// exchange step (equal when skip_exchange is set).
	Initial RouteSummary `json:"initial"`
	Final   RouteSummary `json:"final"`
	// IRDropBeforeV and IRDropAfterV are the solved maximum core
	// IR-drops in volts.
	IRDropBeforeV float64 `json:"ir_drop_before_v"`
	IRDropAfterV  float64 `json:"ir_drop_after_v"`
	// OmegaBefore and OmegaAfter are the bonding interleaving metrics
	// (0 for 2-D ICs).
	OmegaBefore int `json:"omega_before"`
	OmegaAfter  int `json:"omega_after"`
	// Partial marks a run cut short by its budget; Stopped says where.
	Partial bool   `json:"partial,omitempty"`
	Stopped string `json:"stopped,omitempty"`
	// Metrics is the run's telemetry snapshot, present only when the
	// request asked for it.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// RouteSummary condenses a route evaluation.
type RouteSummary struct {
	MaxDensity int     `json:"max_density"`
	Wirelength float64 `json:"wirelength_um"`
}

// renderResponse builds the response body for a finished plan. The bytes
// come from encoding/json over a fixed struct, so field order is the
// declaration order and float formatting is Go's deterministic
// shortest-round-trip form — no map iteration, no timestamps.
//
// The solution is the canonical design text, formatted once by
// canonicalize, followed by the order lines: the bytes WriteSolution
// writes, without formatting the design a second time.
func renderResponse(spec *planSpec, res *copack.Result, col *obs.Collector) ([]byte, error) {
	var sb strings.Builder
	// Room for the order lines too: a short name and a space per net.
	sb.Grow(len(spec.canonical) + 16*spec.problem.Circuit.NumNets())
	sb.WriteString(spec.canonical)
	if err := design.WriteOrders(&sb, spec.problem, res.Assignment); err != nil {
		return nil, err
	}
	resp := PlanResponse{
		Solution:  sb.String(),
		Algorithm: spec.opts.alg.String(),
		Seed:      spec.opts.seed,
		Initial: RouteSummary{
			MaxDensity: res.InitialStats.MaxDensity,
			Wirelength: res.InitialStats.Wirelength,
		},
		Final: RouteSummary{
			MaxDensity: res.FinalStats.MaxDensity,
			Wirelength: res.FinalStats.Wirelength,
		},
		IRDropBeforeV: res.IRDropBefore,
		IRDropAfterV:  res.IRDropAfter,
		OmegaBefore:   res.OmegaBefore,
		OmegaAfter:    res.OmegaAfter,
		Partial:       res.Partial,
		Stopped:       res.Stopped,
	}
	if col != nil {
		snap := col.Snapshot()
		resp.Metrics = &snap
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
