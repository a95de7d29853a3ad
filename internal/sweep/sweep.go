// Package sweep turns the experiment harness's parameter sweeps (the
// paper's Table 2/3 reproductions repeated over seed sets — exactly the
// workload exp.SweepTable2/SweepTable3 compute single-node) into
// distributed jobs with streaming progress.
//
// A sweep is decomposed into its index-ordered work units (one unit per
// seed; a unit is a pure function of the sweep parameters and its seed).
// The node that accepts a sweep becomes its coordinator: it places every
// unit on the fleet's consistent-hash ring by the unit's content key,
// groups the units by owner, forwards each unit to its owner as a
// one-unit shard (subject to fleet-wide admission control — a peer whose
// advertised queue depth is saturated is skipped before the hop), and
// runs whatever remains — unowned units, shards whose owner is dead or
// saturated — through the local node's bounded service queue. Every node
// keeps the results it computed in a unit cache under the same content
// key, so a unit computed before, by a resubmitted or overlapping sweep,
// costs its owner one cache probe instead of a run. Shard placement,
// worker counts, cache state and mid-sweep node deaths change only
// *where* a unit computes, never its bytes.
//
// Determinism is the package's contract: every unit result is serialized
// to canonical JSON by the node that computed it, the coordinator stores
// results at their unit index, and the final reduction (exp.ReduceSweep2/
// ReduceSweep3) walks the completed slice in strict index order. Go's
// encoding/json round-trips float64 exactly (shortest-form encoding), so
// decode(encode(x)) == x and the final body is byte-identical for any
// fleet size, shard placement or worker count. The golden and chaos tests
// in the service and fleet packages lock this down.
//
// The package keeps no job state. Manager.Run computes one sweep and
// reports each completed unit through a Progress; the host (the service
// package) owns the sweep's lifecycle, its event log and its ID.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"copack/internal/exp"
)

// Kind names a sweep workload.
type Kind string

// Supported sweep kinds: the paper's Table 2 (assignment quality vs the
// random baseline) and Table 3 (exchange + IR improvement) repeated over
// seeds.
const (
	KindTable2 Kind = "table2"
	KindTable3 Kind = "table3"
)

// Request is the JSON body of POST /sweeps and the spec half of a shard
// request. Unknown fields are rejected (strict decode), so clients
// discover typos instead of silently sweeping defaults.
type Request struct {
	// Kind selects the workload: "table2" or "table3".
	Kind string `json:"kind"`
	// Seeds lists the sweep's seeds explicitly. Mutually exclusive with
	// NumSeeds.
	Seeds []int64 `json:"seeds,omitempty"`
	// NumSeeds asks for seeds 1..N (exp.Seeds). Mutually exclusive with
	// Seeds.
	NumSeeds int `json:"num_seeds,omitempty"`
	// RandomTries is Table 2's random-baseline sample count (default 10,
	// at most MaxRandomTries). Rejected for table3, which has no random
	// baseline.
	RandomTries int `json:"random_tries,omitempty"`
}

// MaxRandomTries caps random_tries. Each try costs about 0.45 ms per
// Table 2 unit and a running unit cannot be canceled, so the cap bounds
// how long one unit can pin a queue worker past a DELETE or a drain.
const MaxRandomTries = 1000

// HTTPError is a request-layer failure carrying the HTTP status it maps
// to, mirroring the service package's error discipline.
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string { return e.Msg }

func errf(status int, format string, args ...any) *HTTPError {
	return &HTTPError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// Spec is a validated, normalized sweep: the canonical form that derives
// unit keys, feeds unit execution and renders into the final body. Two
// requests that normalize identically (num_seeds 3 vs seeds [1,2,3],
// default vs explicit random_tries) share one Spec.
type Spec struct {
	Kind        Kind
	Seeds       []int64
	RandomTries int // 0 for table3
}

// Normalize validates a Request against the unit cap and produces its
// Spec. Failures are *HTTPError values with client-fault statuses.
func (r *Request) Normalize(maxSeeds int) (*Spec, error) {
	sp := &Spec{}
	switch Kind(r.Kind) {
	case KindTable2:
		sp.Kind = KindTable2
		sp.RandomTries = r.RandomTries
		if sp.RandomTries < 0 {
			return nil, errf(http.StatusBadRequest, "random_tries must be >= 0, got %d", r.RandomTries)
		}
		if sp.RandomTries > MaxRandomTries {
			return nil, errf(http.StatusBadRequest, "random_tries %d exceeds the cap of %d", r.RandomTries, MaxRandomTries)
		}
		if sp.RandomTries == 0 {
			sp.RandomTries = 10 // the harness default, made explicit for the unit key
		}
	case KindTable3:
		sp.Kind = KindTable3
		if r.RandomTries != 0 {
			return nil, errf(http.StatusBadRequest, "random_tries applies only to table2 sweeps")
		}
	case "":
		return nil, errf(http.StatusBadRequest, "missing required field \"kind\" (want table2 or table3)")
	default:
		return nil, errf(http.StatusBadRequest, "unknown sweep kind %q (want table2 or table3)", r.Kind)
	}
	switch {
	case r.NumSeeds < 0:
		return nil, errf(http.StatusBadRequest, "num_seeds must be >= 0, got %d", r.NumSeeds)
	case len(r.Seeds) > 0 && r.NumSeeds > 0:
		return nil, errf(http.StatusBadRequest, "seeds and num_seeds are mutually exclusive")
	case len(r.Seeds) > 0:
		sp.Seeds = append([]int64(nil), r.Seeds...)
	case maxSeeds > 0 && r.NumSeeds > maxSeeds:
		// Checked before exp.Seeds materializes the list.
		return nil, errf(http.StatusBadRequest, "%d seeds exceed the %d-unit cap", r.NumSeeds, maxSeeds)
	case r.NumSeeds > 0:
		sp.Seeds = exp.Seeds(r.NumSeeds)
	default:
		return nil, errf(http.StatusBadRequest, "a sweep needs seeds or num_seeds")
	}
	if maxSeeds > 0 && len(sp.Seeds) > maxSeeds {
		return nil, errf(http.StatusBadRequest, "%d seeds exceed the %d-unit cap", len(sp.Seeds), maxSeeds)
	}
	return sp, nil
}

// DecodeRequest reads and strictly decodes a Request from an HTTP body.
func DecodeRequest(r io.Reader) (*Request, error) {
	var req Request
	if err := decodeBody(r, &req, "sweep request"); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeBody strictly decodes one JSON value from an HTTP body into v, for
// sweep and shard bodies alike: unknown fields and anything after the
// value are rejected, a body over its http.MaxBytesReader cap is a 413,
// and an empty body says so.
func decodeBody(r io.Reader, v any, what string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	decoded := err == nil
	if decoded {
		// v is complete; the body must end here.
		if err = dec.Decode(&struct{}{}); err == io.EOF {
			return nil
		}
	}
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
	case decoded:
		return errf(http.StatusBadRequest, "request body holds more than one JSON object")
	case errors.Is(err, io.EOF):
		return errf(http.StatusBadRequest, "empty request body")
	default:
		return errf(http.StatusBadRequest, "decoding %s: %v", what, err)
	}
}

// Wire renders the spec back into its canonical Request form — the body a
// coordinator ships inside shard requests, with every default explicit so
// both ends derive identical unit keys.
func (sp *Spec) Wire() Request {
	return Request{Kind: string(sp.Kind), Seeds: sp.Seeds, RandomTries: sp.RandomTries}
}

// unitKeyVersion versions the unit content-address so a change to unit
// semantics or the result schema re-shards cleanly.
const unitKeyVersion = "copack-sweep-unit-v1"

// UnitKey is unit i's content address: a pure function of the sweep
// parameters and the unit's seed (NOT its index or the surrounding seed
// set), so the same logical unit lands on the same ring owner whichever
// sweep it appears in, and that owner's unit cache answers it.
func (sp *Spec) UnitKey(i int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nkind=%s tries=%d\nseed=%d\n", unitKeyVersion, sp.Kind, sp.RandomTries, sp.Seeds[i])
	return hex.EncodeToString(h.Sum(nil))
}

// RunUnit executes unit i of the sweep and returns its result as
// canonical JSON. It is a pure function of (spec, seed). The unit's rows
// (Table 2's circuits, Table 3's (ψ, circuit) instances) fan out over one
// worker per CPU, whatever bounds how many units run at once (DESIGN.md,
// "Nested pools"). progress, when non-nil, receives the harness's per-row
// progress lines, in completion order.
func RunUnit(sp *Spec, i int, progress func(line string)) (json.RawMessage, error) {
	h := exp.Harness{Progress: progress}
	switch sp.Kind {
	case KindTable2:
		res, err := exp.Table2(sp.Seeds[i], sp.RandomTries, h)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case KindTable3:
		res, err := exp.Table3(sp.Seeds[i], h)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	default:
		return nil, fmt.Errorf("sweep: unknown kind %q", sp.Kind)
	}
}

// ResultBody is the JSON body of GET /sweeps/{id}/result. Every field is
// a pure function of the spec and the index-ordered unit results, so the
// body is byte-identical across fleet sizes, shard placements and worker
// counts (struct field order + exact float64 round-trips; map keys
// marshal sorted).
type ResultBody struct {
	Kind        string            `json:"kind"`
	Seeds       []int64           `json:"seeds"`
	RandomTries int               `json:"random_tries,omitempty"`
	Table2      *exp.SweepResult  `json:"table2,omitempty"`
	Table3      *exp.Sweep3Result `json:"table3,omitempty"`
	// Summary is the harness's human-readable rendering of the result.
	Summary string `json:"summary"`
}

// Reduce decodes the per-unit results (results[i] is unit i's canonical
// JSON) and aggregates them in strict index order into the final body.
// Both computation paths — local and forwarded — serialize units through
// the same RunUnit, so reducing from the decoded forms loses nothing.
func (sp *Spec) Reduce(results []json.RawMessage) ([]byte, error) {
	if len(results) != len(sp.Seeds) {
		return nil, fmt.Errorf("sweep: %d unit results for %d units", len(results), len(sp.Seeds))
	}
	body := ResultBody{Kind: string(sp.Kind), Seeds: sp.Seeds, RandomTries: sp.RandomTries}
	switch sp.Kind {
	case KindTable2:
		rs := make([]*exp.Table2Result, len(results))
		for i, raw := range results {
			rs[i] = new(exp.Table2Result)
			if err := json.Unmarshal(raw, rs[i]); err != nil {
				return nil, fmt.Errorf("sweep: decoding unit %d result: %w", i, err)
			}
		}
		body.Table2 = exp.ReduceSweep2(sp.Seeds, rs)
		body.Summary = body.Table2.Format()
	case KindTable3:
		rs := make([]*exp.Table3Result, len(results))
		for i, raw := range results {
			rs[i] = new(exp.Table3Result)
			if err := json.Unmarshal(raw, rs[i]); err != nil {
				return nil, fmt.Errorf("sweep: decoding unit %d result: %w", i, err)
			}
		}
		body.Table3 = exp.ReduceSweep3(sp.Seeds, rs)
		body.Summary = body.Table3.Format()
	default:
		return nil, fmt.Errorf("sweep: unknown kind %q", sp.Kind)
	}
	out, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ShardRequest is the JSON body of the internal POST /sweeps/shard hop: a
// canonical sweep spec plus the unit indices the receiving node should
// execute. The full seed list rides along so unit keys and results mean
// the same thing on both ends.
type ShardRequest struct {
	Spec  Request `json:"spec"`
	Units []int   `json:"units"`
}

// DecodeShard strictly decodes a ShardRequest from an HTTP body, exactly
// like a top-level sweep request.
func DecodeShard(r io.Reader) (*ShardRequest, error) {
	var sr ShardRequest
	if err := decodeBody(r, &sr, "shard request"); err != nil {
		return nil, err
	}
	return &sr, nil
}

// Validate normalizes the shard's spec exactly like a top-level
// submission and checks its unit list against it: everything
// RunShardLocal checks before it runs a unit.
func (sr *ShardRequest) Validate(maxSeeds int) (*Spec, error) {
	sp, err := sr.Spec.Normalize(maxSeeds)
	if err != nil {
		return nil, err
	}
	if len(sr.Units) == 0 {
		return nil, errf(http.StatusBadRequest, "shard lists no units")
	}
	for _, u := range sr.Units {
		if u < 0 || u >= len(sp.Seeds) {
			return nil, errf(http.StatusBadRequest, "unit index %d outside the %d-seed sweep", u, len(sp.Seeds))
		}
	}
	return sp, nil
}

// ShardResponse carries the executed units' canonical JSON results, in
// the order the request listed the units. Cached[k] reports that unit k
// was answered from the receiving node's unit cache instead of computed,
// so the coordinator can count computed units apart from cached ones.
type ShardResponse struct {
	Results []json.RawMessage `json:"results"`
	Cached  []bool            `json:"cached"`
}
