package cluster

import (
	"fmt"
	"testing"
)

func ringT(t *testing.T, nodes []string) *Ring {
	t.Helper()
	r, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func tenantKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%04d", i)
	}
	return keys
}

func TestRingDeterministicAndDistinct(t *testing.T) {
	a := ringT(t, []string{"n1", "n2", "n3"})
	b := ringT(t, []string{"n3", "n1", "n2"}) // input order must not matter
	for _, key := range tenantKeys(64) {
		ca, cb := a.Lookup(key, 0), b.Lookup(key, 0)
		if len(ca) != 3 || len(cb) != 3 {
			t.Fatalf("lookup %q returned %d/%d candidates", key, len(ca), len(cb))
		}
		seen := map[string]bool{}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("key %q: candidate order depends on input order: %v vs %v", key, ca, cb)
			}
			if seen[ca[i]] {
				t.Fatalf("key %q: duplicate candidate %q", key, ca[i])
			}
			seen[ca[i]] = true
		}
	}
}

// TestRingMinimalMovementOnJoin asserts the consistent-hashing contract:
// adding one node to N re-homes roughly 1/(N+1) of the keys and never moves
// a key between two pre-existing nodes.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	const keys = 4000
	nodes := []string{"n1", "n2", "n3", "n4"}
	before := ringT(t, nodes)
	after := ringT(t, append(append([]string{}, nodes...), "n5"))

	moved := 0
	for _, key := range tenantKeys(keys) {
		b, a := before.Primary(key), after.Primary(key)
		if b != a {
			moved++
			if a != "n5" {
				t.Fatalf("key %q moved between pre-existing nodes %q → %q", key, b, a)
			}
		}
	}
	// Expected fraction 1/5 = 20%; allow vnode-placement slack.
	if frac := float64(moved) / keys; frac > 0.30 {
		t.Fatalf("join moved %.1f%% of keys (want ≈20%%)", 100*frac)
	}
}

// TestRingMinimalMovementOnLeave is the symmetric property: removing a node
// re-homes only the keys it owned.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	const keys = 4000
	before := ringT(t, []string{"n1", "n2", "n3", "n4", "n5"})
	after := ringT(t, []string{"n1", "n2", "n3", "n4"})
	for _, key := range tenantKeys(keys) {
		b, a := before.Primary(key), after.Primary(key)
		if b != "n5" && b != a {
			t.Fatalf("key %q owned by surviving node %q re-homed to %q", key, b, a)
		}
		if b == "n5" && a == "n5" {
			t.Fatalf("key %q still routed to the removed node", key)
		}
	}
}

// TestRingBalance holds the vnode spread: with 128 vnodes per node, no node
// owns more than twice the fair share of a large key population.
func TestRingBalance(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	r := ringT(t, nodes)
	counts := map[string]int{}
	const keys = 20000
	for _, key := range tenantKeys(keys) {
		counts[r.Primary(key)]++
	}
	fair := keys / len(nodes)
	for n, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Fatalf("node %s owns %d of %d keys (fair share %d)", n, c, keys, fair)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := NewRing([]string{""}, 8); err == nil {
		t.Fatal("empty node name accepted")
	}
	empty := ringT(t, nil)
	if got := empty.Lookup("k", 3); got != nil {
		t.Fatalf("empty ring lookup returned %v", got)
	}
	if empty.Primary("k") != "" {
		t.Fatal("empty ring primary non-empty")
	}
	one := ringT(t, []string{"solo"})
	if got := one.Lookup("k", 5); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("single-node lookup %v", got)
	}
}
