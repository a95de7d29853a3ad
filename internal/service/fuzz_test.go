package service

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"copack/internal/sweep"
)

// FuzzPlanRequest throws arbitrary bytes at the request front half — decode
// then canonicalize — and checks the invariants the HTTP layer depends on:
// every rejection is a typed *httpError (so the handler can map it to a
// 4xx/5xx instead of panicking or leaking a 500), and every acceptance is
// deterministic: canonicalizing twice yields the same key, and the
// canonical text is a fixed point of canonicalization. The key memo must
// never change a key or a verdict: an accepted input keyed by SpecKey
// cold and then from the memo gets canonicalize's key both times, and a
// rejected input is rejected again, with the same status, every time.
func FuzzPlanRequest(f *testing.F) {
	design := testDesign(f, 16, 1)
	// Seeds cover the interesting request classes: a valid minimal
	// request, malformed/truncated JSON, unknown fields, wrong types,
	// conflicting and out-of-range options, oversized designs, trailing
	// garbage and empty input.
	seeds := []string{
		`{"design": ` + quoteJSON(design) + `}`,
		`{"design": ` + quoteJSON(design) + `, "options": {"algorithm": "ifa", "seed": 7}}`,
		`{"design": ` + quoteJSON(design) + `, "options": {"skip_exchange": true, "restarts": 9}}`,
		`{"design": "circuit c\nnet a signal\n"}`,
		``,
		`{`,
		`{"design"`,
		`null`,
		`42`,
		`"just a string"`,
		`{"design": 42}`,
		`{"design": "x", "designs": "y"}`,
		`{"design": "x", "options": {"seed": "one"}}`,
		`{"design": "x", "options": {"budget_ms": -1}}`,
		`{"design": "x", "options": {"restarts": 1000000}}`,
		`{"design": "x", "options": {"algorithm": "greedy"}}`,
		`{"design": "` + strings.Repeat("x", 5000) + `"}`,
		`{"design": "circuit c"} {"design": "trailing"}`,
	}
	// Bodies of the retired options.portfolio must be rejected with a
	// 400 that names restarts, its replacement.
	retired := []string{
		`{"design": ` + quoteJSON(design) + `, "options": {"portfolio": {"arms": [{"name": "a"}], "budget": 65}}}`,
		`{"design": ` + quoteJSON(design) + `, "options": {"portfolio": {"arms": [{"name": "a", "schedule": {"MovesPerTemp": 1000000000000, "Cooling": 0.9999999}}], "budget": 2}}}`,
	}
	for _, s := range retired {
		_, err := decodePlanRequest([]byte(s))
		var he *httpError
		if !errors.As(err, &he) || he.status != 400 || !strings.Contains(he.msg, "restarts") {
			f.Fatalf("retired portfolio body: %v, want a 400 naming restarts", err)
		}
	}
	for _, s := range append(seeds, retired...) {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := specServer(4096) // a fresh memo: the first SpecKey is cold
		req, err := decodePlanRequest(data)
		var spec *planSpec
		if err == nil {
			spec, err = srv.canonicalize(req)
		}
		if err != nil {
			requireHTTPError(t, err, data)
			requireRejectedAgain(t, srv, err, data)
			return
		}
		if spec.key == "" || spec.canonical == "" || spec.problem == nil {
			t.Fatalf("accepted spec with empty parts: %+v (input %q)", spec, data)
		}
		// Same request → same key.
		again, err := srv.canonicalize(req)
		if err != nil {
			t.Fatalf("second canonicalize rejected what the first accepted: %v (input %q)", err, data)
		}
		if again.key != spec.key {
			t.Fatalf("canonicalize is unstable: %s vs %s (input %q)", spec.key, again.key, data)
		}
		// The canonical text is a fixed point.
		fixed, err := srv.canonicalize(&PlanRequest{Design: spec.canonical, Options: req.Options})
		if err != nil {
			t.Fatalf("canonical text rejected: %v (input %q)", err, data)
		}
		if fixed.canonical != spec.canonical || fixed.key != spec.key {
			t.Fatalf("canonical text is not a fixed point (input %q)", data)
		}
		// The key memo: the cold call fills it, the second answers from it.
		for _, pass := range []string{"cold", "memo"} {
			key, err := srv.SpecKey(data)
			if err != nil || key != spec.key {
				t.Fatalf("%s SpecKey = %q, %v; want %s (input %q)", pass, key, err, spec.key, data)
			}
			if n := srv.memo.len(); n != 1 {
				t.Fatalf("%s SpecKey left %d memo entries, want 1 (input %q)", pass, n, data)
			}
		}
	})
}

// requireRejectedAgain asserts a rejected input stays rejected through
// SpecKey, with the first rejection's status, on repeated calls — so no
// failure was memoized.
func requireRejectedAgain(t *testing.T, srv *Server, first error, input []byte) {
	t.Helper()
	var want *httpError
	errors.As(first, &want)
	for i := 0; i < 2; i++ {
		_, err := srv.SpecKey(input)
		var he *httpError
		if !errors.As(err, &he) || he.status != want.status {
			t.Fatalf("SpecKey call %d: %v, want status %d (input %q)", i+1, err, want.status, input)
		}
	}
	if n := srv.memo.len(); n != 0 {
		t.Fatalf("rejected input left %d memo entries (input %q)", n, input)
	}
}

// requireHTTPError asserts a rejection carries a client-mappable status.
func requireHTTPError(t *testing.T, err error, input []byte) {
	t.Helper()
	var he *httpError
	if !errors.As(err, &he) {
		t.Fatalf("rejection is not an *httpError: %T %v (input %q)", err, err, input)
	}
	if he.status < 400 || he.status > 599 {
		t.Fatalf("rejection status %d out of range (input %q)", he.status, input)
	}
	if he.msg == "" {
		t.Fatalf("rejection without a message (input %q)", input)
	}
}

// quoteJSON renders s as a JSON string literal for seed construction.
func quoteJSON(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteRune(r)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// fuzzMaxSeeds is the seed cap the sweep fuzzers decode under: the
// server default.
const fuzzMaxSeeds = 64

// FuzzSweepRequest throws arbitrary bytes at the POST /sweeps front half
// the handler runs — strict decode, then Normalize under the seed cap —
// and checks what the HTTP layer relies on: every rejection is a 4xx
// *httpError, every accepted body is exactly one JSON value, the spec
// respects the seed and random_tries caps, and each of its units, as the
// coordinator ships it, comes through the shard hop's own decoder
// unchanged and keyed as before, so both ends of a shard hop agree on
// every unit.
func FuzzSweepRequest(f *testing.F) {
	for _, s := range []string{
		`{"kind":"table2","num_seeds":3}`,
		`{"kind":"table2","seeds":[5,1,5],"random_tries":7}`,
		`{"kind":"table3","seeds":[1]}`,
		`{"kind":"table3","num_seeds":2,"random_tries":3}`,
		`{"kind":"table2","seeds":[1],"random_tries":2000000000}`,
		`{"kind":"table2","num_seeds":2000000000}`,
		`{"kind":"table2","seeds":[1],"num_seeds":2}`,
		`{"kind":"table9","num_seeds":1}`,
		`{"kind":"table2","num_seeds":-1,"seeds":[3]}`,
		`{"kind":"table2","typo":1}`,
		`{"kind":"table2"}{"kind":"table3"}`,
		`{"kind":"table3","seeds":[1]} garbage`,
		`{"kind":2}`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := decodeSweep(data, fuzzMaxSeeds)
		if err != nil {
			requireClientError(t, err, data)
			return
		}
		requireOneValue(t, data)
		if len(sp.Seeds) == 0 || len(sp.Seeds) > fuzzMaxSeeds {
			t.Fatalf("input %q: accepted %d seeds (cap %d)", data, len(sp.Seeds), fuzzMaxSeeds)
		}
		requireUnitWithinCaps(t, sp.Unit(0), data)
		for i := range sp.Seeds {
			wire, err := json.Marshal(sp.Unit(i))
			if err != nil {
				t.Fatalf("input %q: marshaling unit %d: %v", data, i, err)
			}
			u, err := decodeUnit(wire)
			if err != nil || u != sp.Unit(i) || u.Key() != sp.UnitKey(i) {
				t.Fatalf("input %q: unit %d shard body %s decoded to %+v, %v", data, i, wire, u, err)
			}
		}
	})
}

// FuzzShardUnit throws arbitrary bytes at the POST /sweeps/shard front
// half — strict decode, then the unit's own check — without ever running
// a unit. Rejections must be 4xx *httpError values; an accepted body must
// be exactly one JSON value whose unit respects the caps and comes back
// through the decoder unchanged, with the same key.
func FuzzShardUnit(f *testing.F) {
	for _, s := range []string{
		`{"kind":"table2","random_tries":2,"seed":1}`,
		`{"kind":"table3","seed":4}`,
		`{"kind":"table2","seed":-7}`,
		`{"kind":"table2","random_tries":-1,"seed":1}`,
		`{"kind":"table2","random_tries":2000000000,"seed":1}`,
		`{"kind":"table3","random_tries":2,"seed":1}`,
		`{"kind":"table9","seed":1}`,
		`{"seed":1}`,
		`{"kind":"table3","seed":1,"extra":1}`,
		`{"kind":"table3","seed":"1"}`,
		`{"kind":"table3","seed":1}{"seed":9}`,
		`{"kind":"table3","seed":1} garbage`,
		`{"spec":{"kind":"table3","seeds":[1]},"units":[0]}`,
		`{nope`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := decodeUnit(data)
		if err != nil {
			requireClientError(t, err, data)
			return
		}
		requireOneValue(t, data)
		requireUnitWithinCaps(t, u, data)
		wire, err := json.Marshal(u)
		if err != nil {
			t.Fatalf("input %q: marshaling %+v: %v", data, u, err)
		}
		back, err := decodeUnit(wire)
		if err != nil || back != u || back.Key() != u.Key() {
			t.Fatalf("input %q: unit %+v came back as %+v, %v", data, u, back, err)
		}
	})
}

// requireClientError asserts a rejection is a 4xx *httpError.
func requireClientError(t *testing.T, err error, input []byte) {
	t.Helper()
	var he *httpError
	if !errors.As(err, &he) || he.status < 400 || he.status >= 500 || he.msg == "" {
		t.Fatalf("input %q: rejection %v (%T) is not a 4xx *httpError", input, err, err)
	}
}

// requireOneValue fails unless an accepted body is exactly one JSON value:
// the decoder must reject a second value or trailing garbage.
func requireOneValue(t *testing.T, input []byte) {
	t.Helper()
	if !json.Valid(input) {
		t.Fatalf("input %q: accepted a body that is not exactly one JSON value", input)
	}
}

func requireUnitWithinCaps(t *testing.T, u sweep.Unit, input []byte) {
	t.Helper()
	if u.RandomTries < 0 || u.RandomTries > sweep.MaxRandomTries || (u.Kind == sweep.KindTable3) != (u.RandomTries == 0) {
		t.Fatalf("input %q: accepted random_tries %d for %s", input, u.RandomTries, u.Kind)
	}
	if u.Kind != sweep.KindTable2 && u.Kind != sweep.KindTable3 {
		t.Fatalf("input %q: accepted kind %q", input, u.Kind)
	}
}
