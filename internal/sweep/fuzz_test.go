package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

// fuzzMaxSeeds is the seed cap the fuzzers normalize under: the service
// default.
const fuzzMaxSeeds = 64

// The service decodes sweep and shard bodies strictly and fuzzes that
// decoder (internal/service's FuzzSweepRequest and FuzzShardUnit). These
// fuzzers build their values with the lenient json.Unmarshal instead, so
// arbitrary field values reach this package's own rules.

// FuzzSweepRequest throws arbitrary requests at Normalize and checks what
// the shard hop relies on: an accepted spec respects the seed and
// random_tries caps, and each of its units is already canonical — it
// normalizes to itself, survives a JSON round trip, and keys as
// Spec.UnitKey does — so both ends of a shard hop agree on every unit.
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
		var req Request
		if json.Unmarshal(data, &req) != nil {
			return
		}
		sp, err := req.Normalize(fuzzMaxSeeds)
		if err != nil {
			return
		}
		requireWithinCaps(t, sp, data)
		if req.NumSeeds < 0 {
			t.Fatalf("input %q: accepted num_seeds %d", data, req.NumSeeds)
		}
		for i := range sp.Seeds {
			u := sp.Unit(i)
			if got, err := u.Normalize(); err != nil || got != u {
				t.Fatalf("input %q: unit %d %+v normalizes to %+v, %v", data, i, u, got, err)
			}
			wire, err := json.Marshal(u)
			if err != nil {
				t.Fatalf("input %q: marshaling unit %d: %v", data, i, err)
			}
			var back Unit
			if err := json.Unmarshal(wire, &back); err != nil || back != u {
				t.Fatalf("input %q: unit %d round trip %s gave %+v, %v", data, i, wire, back, err)
			}
			if back.Key() != sp.UnitKey(i) {
				t.Fatalf("input %q: unit %d key changed across the wire", data, i)
			}
		}
	})
}

// FuzzShardBatch throws arbitrary units — a shard's whole body — at
// Unit.Normalize without ever running one. An accepted unit must carry a
// kind and random_tries the sweep rule allows, normalize to itself a
// second time, and keep its key.
func FuzzShardBatch(f *testing.F) {
	for _, s := range []string{
		`{"kind":"table2","random_tries":2,"seed":1}`,
		`{"kind":"table3","seed":4}`,
		`{"kind":"table2","seed":-7}`,
		`{"kind":"table2","random_tries":-1,"seed":1}`,
		`{"kind":"table2","random_tries":1000,"seed":1}`,
		`{"kind":"table2","random_tries":2000000000,"seed":1}`,
		`{"kind":"table3","random_tries":2,"seed":1}`,
		`{"kind":"table9","seed":1}`,
		`{"seed":1}`,
		`{"kind":"table3","seed":"1"}`,
		`{"kind":"table3","seed":1}{"seed":9}`,
		`{"spec":{"kind":"table3","seeds":[1]},"units":[0]}`,
		`{nope`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var u Unit
		if json.Unmarshal(data, &u) != nil {
			return
		}
		got, err := u.Normalize()
		if err != nil {
			return
		}
		requireWithinCaps(t, &Spec{Kind: got.Kind, Seeds: []int64{got.Seed}, RandomTries: got.RandomTries}, data)
		again, err := got.Normalize()
		if err != nil || !reflect.DeepEqual(again, got) || again.Key() != got.Key() {
			t.Fatalf("input %q: normalizing %+v again gave %+v, %v", data, got, again, err)
		}
	})
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
