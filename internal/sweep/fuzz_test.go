package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// fuzzMaxSeeds is the seed cap the fuzzers normalize under: the service
// default.
const fuzzMaxSeeds = 64

// FuzzSweepRequest throws arbitrary bytes at the POST /sweeps front half —
// strict decode, then Normalize under the seed cap — and checks what the
// HTTP layer relies on: every rejection is a typed *HTTPError with a 4xx
// status, every accepted body is exactly one JSON value, every accepted
// spec respects the seed and random_tries caps, and its wire form (what a
// coordinator ships in shard requests) survives a JSON round trip and
// re-normalizes to an equal spec with equal unit keys, so both ends of a
// shard hop agree on every unit.
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
		`{"kind":2}`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		var sp *Spec
		if err == nil {
			sp, err = req.Normalize(fuzzMaxSeeds)
		}
		if err != nil {
			requireClientError(t, err, data)
			return
		}
		requireOneValue(t, data)
		requireWithinCaps(t, sp, data)
		wire, err := json.Marshal(sp.Wire())
		if err != nil {
			t.Fatalf("input %q: marshaling the wire form: %v", data, err)
		}
		back, err := DecodeRequest(bytes.NewReader(wire))
		var again *Spec
		if err == nil {
			again, err = back.Normalize(fuzzMaxSeeds)
		}
		if err != nil {
			t.Fatalf("input %q: wire form %s rejected: %v", data, wire, err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("input %q: wire round trip changed the spec: %+v -> %+v", data, sp, again)
		}
		for i := range sp.Seeds {
			if again.UnitKey(i) != sp.UnitKey(i) {
				t.Fatalf("input %q: unit %d key changed across the wire", data, i)
			}
		}
	})
}

// FuzzShardBatch throws arbitrary bytes at the shard hop's front half —
// DecodeShard, then the Validate step RunShardLocal makes before it runs
// anything — without ever running a unit. Rejections must be typed 4xx
// errors; an accepted body must hold exactly one JSON value, an accepted
// shard must list at least one unit, every unit must index the spec's
// seeds, and the spec must respect the caps.
func FuzzShardBatch(f *testing.F) {
	for _, s := range []string{
		`{"spec":{"kind":"table2","seeds":[1,2],"random_tries":2},"units":[1,0]}`,
		`{"spec":{"kind":"table3","seeds":[4]},"units":[0,0]}`,
		`{"spec":{"kind":"table2","seeds":[1],"random_tries":2},"units":[5]}`,
		`{"spec":{"kind":"table2","seeds":[1],"random_tries":2},"units":[-1]}`,
		`{"spec":{"kind":"table2","seeds":[1],"random_tries":2},"units":[]}`,
		`{"spec":{"kind":"table2","seeds":[1],"random_tries":2000000000},"units":[0]}`,
		`{"spec":{"kind":"table2","num_seeds":2000000000},"units":[0]}`,
		`{"spec":{"kind":"table2","seeds":[1]},"units":[0],"extra":1}`,
		`{"spec":{},"units":[0]}`,
		`{"units":"0"}`,
		`{"spec":{"kind":"table3","seeds":[1]},"units":[0]}{"units":[9]}`,
		`{"spec":{"kind":"table3","seeds":[1]},"units":[0]} garbage`,
		`{nope`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := DecodeShard(bytes.NewReader(data))
		var sp *Spec
		if err == nil {
			sp, err = sr.Validate(fuzzMaxSeeds)
		}
		if err != nil {
			requireClientError(t, err, data)
			return
		}
		requireOneValue(t, data)
		requireWithinCaps(t, sp, data)
		if len(sr.Units) == 0 {
			t.Fatalf("input %q: accepted a shard with no units", data)
		}
		for _, u := range sr.Units {
			if u < 0 || u >= len(sp.Seeds) {
				t.Fatalf("input %q: accepted unit %d of a %d-seed sweep", data, u, len(sp.Seeds))
			}
		}
	})
}

func requireClientError(t *testing.T, err error, input []byte) {
	t.Helper()
	var he *HTTPError
	if !errors.As(err, &he) || he.Status < 400 || he.Status >= 500 {
		t.Fatalf("input %q: rejection %v (%T) is not a 4xx *HTTPError", input, err, err)
	}
}

// requireOneValue fails unless an accepted body is exactly one JSON value:
// the decoders must reject a second value or trailing garbage.
func requireOneValue(t *testing.T, input []byte) {
	t.Helper()
	if !json.Valid(input) {
		t.Fatalf("input %q: accepted a body that is not exactly one JSON value", input)
	}
}

func requireWithinCaps(t *testing.T, sp *Spec, input []byte) {
	t.Helper()
	if len(sp.Seeds) == 0 || len(sp.Seeds) > fuzzMaxSeeds {
		t.Fatalf("input %q: accepted %d seeds (cap %d)", input, len(sp.Seeds), fuzzMaxSeeds)
	}
	if sp.RandomTries < 0 || sp.RandomTries > MaxRandomTries || (sp.Kind == KindTable3) != (sp.RandomTries == 0) {
		t.Fatalf("input %q: accepted random_tries %d for %s", input, sp.RandomTries, sp.Kind)
	}
}
