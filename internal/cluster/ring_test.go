package cluster

import (
	"fmt"
	"testing"
)

func ringWith(nodes ...string) *Ring {
	r := NewRing()
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

func TestOwnersDeterministicAndOrderIndependent(t *testing.T) {
	a := ringWith("n1", "n2", "n3", "n4", "n5")
	b := ringWith("n5", "n3", "n1", "n4", "n2")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("digest-%d", i)
		oa, ob := a.Owners(key, 3), b.Owners(key, 3)
		if len(oa) != 3 || len(ob) != 3 {
			t.Fatalf("owner count: %d / %d, want 3", len(oa), len(ob))
		}
		seen := map[string]bool{}
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("key %q: placement depends on insertion order: %v vs %v", key, oa, ob)
			}
			if seen[oa[j]] {
				t.Fatalf("key %q: duplicate owner %s", key, oa[j])
			}
			seen[oa[j]] = true
		}
	}
}

func TestOwnersCappedAtMembership(t *testing.T) {
	r := ringWith("n1", "n2")
	if got := r.Owners("k", 3); len(got) != 2 {
		t.Fatalf("owners on 2-node ring: %v, want 2 distinct", got)
	}
	if got := NewRing().Owners("k", 3); got != nil {
		t.Fatalf("owners on empty ring: %v, want nil", got)
	}
}

// TestRebalanceMovesBoundedFraction pins the consistent-hashing property
// that justifies the ring: adding a sixth node relocates roughly 1/6 of
// the keyspace, not half of it.
func TestRebalanceMovesBoundedFraction(t *testing.T) {
	const keys = 2000
	before := ringWith("n1", "n2", "n3", "n4", "n5")
	after := ringWith("n1", "n2", "n3", "n4", "n5")
	after.Add("n6")

	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("digest-%d", i)
		if before.Owners(key, 1)[0] != after.Owners(key, 1)[0] {
			moved++
		}
	}
	frac := float64(moved) / keys
	if frac > 0.35 {
		t.Fatalf("adding one of six nodes moved %.0f%% of keys; consistent hashing broken", frac*100)
	}
	if moved == 0 {
		t.Fatal("new node received no keys")
	}
}

func TestLoadSpread(t *testing.T) {
	r := ringWith("n1", "n2", "n3", "n4", "n5")
	counts := map[string]int{}
	const keys = 5000
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("digest-%d", i), 1)[0]]++
	}
	for n, c := range counts {
		frac := float64(c) / keys
		if frac < 0.08 || frac > 0.35 {
			t.Fatalf("node %s holds %.0f%% of the primary keyspace; spread too skewed", n, frac*100)
		}
	}
}

func TestRemoveRestoresPriorPlacementForSurvivors(t *testing.T) {
	r := ringWith("n1", "n2", "n3")
	key := "some-digest"
	ownersBefore := r.Owners(key, 2)
	r.Add("n4")
	r.Remove("n4")
	ownersAfter := r.Owners(key, 2)
	for i := range ownersBefore {
		if ownersBefore[i] != ownersAfter[i] {
			t.Fatalf("add+remove is not placement-neutral: %v vs %v", ownersBefore, ownersAfter)
		}
	}
	if n := len(r.Owners(key, 10)); n != 3 {
		t.Fatalf("%d owners of 10 asked for, want the 3 members", n)
	}
}
