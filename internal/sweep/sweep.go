// Package sweep turns the experiment harness's parameter sweeps (the
// paper's Table 2/3 reproductions repeated over seed sets — exactly the
// workload exp.SweepTable2/SweepTable3 compute single-node) into
// distributed jobs with streaming progress.
//
// A sweep is decomposed into its index-ordered work units (one unit per
// seed; a unit is a pure function of the sweep parameters and its seed).
// The node that accepts a sweep becomes its coordinator: it places every
// unit on the fleet's consistent-hash ring by the unit's content key,
// groups the units by owner, forwards each unit to its owner as a shard
// whose body is the Unit itself (subject to fleet-wide admission control
// — a peer whose advertised queue depth is saturated is skipped before
// the hop), and
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
// The package keeps no job state and reads no HTTP. Manager.Run computes
// one sweep and reports each completed unit through a Progress; the host
// (the service package) decodes sweep and shard bodies and owns the
// sweep's lifecycle, its event log and its ID.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

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

// Request is the JSON body of POST /sweeps. The service decodes it
// strictly, so clients discover typos instead of silently sweeping
// defaults.
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
// Spec. Every failure is the client's.
func (r *Request) Normalize(maxSeeds int) (*Spec, error) {
	kind, tries, err := canonicalKind(Kind(r.Kind), r.RandomTries)
	if err != nil {
		return nil, err
	}
	sp := &Spec{Kind: kind, RandomTries: tries}
	switch {
	case r.NumSeeds < 0:
		return nil, fmt.Errorf("num_seeds must be >= 0, got %d", r.NumSeeds)
	case len(r.Seeds) > 0 && r.NumSeeds > 0:
		return nil, errors.New("seeds and num_seeds are mutually exclusive")
	case len(r.Seeds) > 0:
		sp.Seeds = append([]int64(nil), r.Seeds...)
	case maxSeeds > 0 && r.NumSeeds > maxSeeds:
		// Checked before exp.Seeds materializes the list.
		return nil, fmt.Errorf("%d seeds exceed the %d-unit cap", r.NumSeeds, maxSeeds)
	case r.NumSeeds > 0:
		sp.Seeds = exp.Seeds(r.NumSeeds)
	default:
		return nil, errors.New("a sweep needs seeds or num_seeds")
	}
	if maxSeeds > 0 && len(sp.Seeds) > maxSeeds {
		return nil, fmt.Errorf("%d seeds exceed the %d-unit cap", len(sp.Seeds), maxSeeds)
	}
	return sp, nil
}

// canonicalKind is the kind and random_tries rule of every sweep and
// every unit: table2 takes 0..MaxRandomTries tries, 0 meaning the
// harness default of 10, made explicit for the unit key; table3 takes
// none.
func canonicalKind(kind Kind, tries int) (Kind, int, error) {
	switch kind {
	case KindTable2:
		switch {
		case tries < 0:
			return "", 0, fmt.Errorf("random_tries must be >= 0, got %d", tries)
		case tries > MaxRandomTries:
			return "", 0, fmt.Errorf("random_tries %d exceeds the cap of %d", tries, MaxRandomTries)
		case tries == 0:
			tries = 10
		}
	case KindTable3:
		if tries != 0 {
			return "", 0, errors.New("random_tries applies only to table2 sweeps")
		}
	case "":
		return "", 0, errors.New("missing required field \"kind\" (want table2 or table3)")
	default:
		return "", 0, fmt.Errorf("unknown sweep kind %q (want table2 or table3)", kind)
	}
	return kind, tries, nil
}

// Unit is one work unit: exactly what its key hashes, and the JSON body of
// the internal POST /sweeps/shard hop. A unit is a pure function of these
// three fields, whichever sweep it belongs to.
type Unit struct {
	Kind        Kind  `json:"kind"`
	RandomTries int   `json:"random_tries,omitempty"`
	Seed        int64 `json:"seed"`
}

// Unit returns unit i of the sweep.
func (sp *Spec) Unit(i int) Unit {
	return Unit{Kind: sp.Kind, RandomTries: sp.RandomTries, Seed: sp.Seeds[i]}
}

// Normalize checks a unit received from a peer by the rule Request.Normalize
// applies and returns its canonical form. Every failure is the client's.
func (u Unit) Normalize() (Unit, error) {
	var err error
	u.Kind, u.RandomTries, err = canonicalKind(u.Kind, u.RandomTries)
	return u, err
}

// unitKeyVersion versions the unit content-address so a change to unit
// semantics or the result schema re-shards cleanly.
const unitKeyVersion = "copack-sweep-unit-v1"

// Key is the unit's content address: a pure function of its kind, tries
// and seed (NOT its index or the surrounding seed set), so the same
// logical unit lands on the same ring owner whichever sweep it appears
// in, and that owner's unit cache answers it.
func (u Unit) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nkind=%s tries=%d\nseed=%d\n", unitKeyVersion, u.Kind, u.RandomTries, u.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// UnitKey is unit i's content address.
func (sp *Spec) UnitKey(i int) string { return sp.Unit(i).Key() }

// RunUnit executes unit i of the sweep and returns its result as
// canonical JSON.
func RunUnit(sp *Spec, i int, progress func(line string)) (json.RawMessage, error) {
	return sp.Unit(i).run(progress)
}

// run executes the unit and returns its result as canonical JSON. The
// unit's rows (Table 2's circuits, Table 3's (ψ, circuit) instances) fan
// out over one worker per CPU, whatever bounds how many units run at once
// (DESIGN.md, "Nested pools"). progress, when non-nil, receives the
// harness's per-row progress lines, in completion order.
func (u Unit) run(progress func(line string)) (json.RawMessage, error) {
	h := exp.Harness{Progress: progress}
	switch u.Kind {
	case KindTable2:
		res, err := exp.Table2(u.Seed, u.RandomTries, h)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case KindTable3:
		res, err := exp.Table3(u.Seed, h)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	default:
		return nil, fmt.Errorf("sweep: unknown kind %q", u.Kind)
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

// ShardResponse is the reply to a shard: the unit's canonical JSON
// result, and whether the receiving node answered it from its unit cache
// instead of computing it, so the coordinator can count computed units
// apart from cached ones.
type ShardResponse struct {
	Result json.RawMessage `json:"result"`
	Cached bool            `json:"cached"`
}
