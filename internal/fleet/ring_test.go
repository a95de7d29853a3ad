package fleet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func TestRingOwnerDeterministicAndMembershipOrderFree(t *testing.T) {
	a := newRing([]string{"a", "b", "c"}, 64)
	b := newRing([]string{"c", "a", "b"}, 64) // same membership, different order
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.owner(key) != b.owner(key) {
			t.Fatalf("key %s: owner differs across construction orders: %s vs %s",
				key, a.owner(key), b.owner(key))
		}
	}
}

func TestRingPreferenceIsPermutation(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r := newRing(nodes, 32)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		prefs := r.preference(key)
		if prefs[0] != r.owner(key) {
			t.Fatalf("key %s: preference[0] %s != owner %s", key, prefs[0], r.owner(key))
		}
		got := append([]string(nil), prefs...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, nodes) {
			t.Fatalf("key %s: preference %v is not a permutation of %v", key, prefs, nodes)
		}
	}
}

func TestRingCoversEveryNode(t *testing.T) {
	r := newRing([]string{"a", "b", "c"}, 64)
	owned := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		owned[r.owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, n := range []string{"a", "b", "c"} {
		// With 64 vnodes the split is roughly even; require each node to
		// own a meaningful share, not a perfect third.
		if owned[n] < keys/10 {
			t.Errorf("node %s owns only %d/%d keys", n, owned[n], keys)
		}
	}
}

func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r := newRing([]string{"solo"}, 8)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		if got := r.preference(key); len(got) != 1 || got[0] != "solo" {
			t.Fatalf("key %s: preference %v, want [solo]", key, got)
		}
	}
}

func TestRingStableUnderNodeRemoval(t *testing.T) {
	// Consistent hashing's point: removing one node must not move keys
	// between surviving nodes — only the dead node's keys relocate.
	full := newRing([]string{"a", "b", "c"}, 64)
	reduced := newRing([]string{"a", "c"}, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		was := full.owner(key)
		now := reduced.owner(key)
		if was != "b" && now != was {
			t.Fatalf("key %s moved %s → %s though its owner survived", key, was, now)
		}
	}
}

// owner returns the node that owns key.
func (r *ring) owner(key string) string { return r.preference(key)[0] }
