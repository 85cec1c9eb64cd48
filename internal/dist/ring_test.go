package dist

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r1 := NewRing(members)
	r2 := NewRing([]string{"http://c", "http://a", "http://b", "http://a"})
	if got := r1.Members(); len(got) != 3 {
		t.Fatalf("members = %v", got)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("stream-%d", i)
		o1, o2 := r1.Owner(key), r2.Owner(key)
		if o1 == "" || o1 != o2 {
			t.Fatalf("owner(%s) = %q vs %q — ring is order- or duplicate-sensitive", key, o1, o2)
		}
	}
}

func TestRingBalance(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r := NewRing(members)
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("stream-%d", i))]++
	}
	for _, m := range members {
		// With 64 vnodes the split stays within a loose 2× band — the
		// point is no member is starved or doubly loaded pathologically.
		if counts[m] < n/6 || counts[m] > n/2+n/10 {
			t.Fatalf("member %s owns %d of %d keys: %v", m, counts[m], n, counts)
		}
	}
}

// TestRingStability: removing one member moves only that member's keys
// — every key owned by a survivor keeps its owner, which is what keeps
// streams (and their pending tickets) pinned during a replica loss.
func TestRingStability(t *testing.T) {
	full := NewRing([]string{"http://a", "http://b", "http://c"})
	reduced := NewRing([]string{"http://a", "http://c"})
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("stream-%d", i)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != "http://b" {
			if after != before {
				t.Fatalf("key %s moved %s → %s though its owner survived", key, before, after)
			}
			continue
		}
		moved++
		if after == "http://b" {
			t.Fatalf("key %s still maps to the removed member", key)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys — balance test should have caught this")
	}
}

func TestRingEmpty(t *testing.T) {
	if owner := NewRing(nil).Owner("x"); owner != "" {
		t.Fatalf("empty ring owner = %q", owner)
	}
}
