package fleet

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		// Spread keys over the space the way config hashes do: hash an
		// index, don't use it raw.
		keys[i] = pointHash(fmt.Sprintf("key-%d", i), 0)
	}
	return keys
}

func TestRingDeterministicAndComplete(t *testing.T) {
	workers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := NewRing(workers, 64)
	r2 := NewRing(workers, 64)
	counts := make([]int, len(workers))
	for _, key := range ringKeys(2000) {
		s1, s2 := r1.Successors(key), r2.Successors(key)
		if len(s1) != len(workers) {
			t.Fatalf("Successors returned %d workers, want %d", len(s1), len(workers))
		}
		seen := map[int]bool{}
		for i, wi := range s1 {
			if wi != s2[i] {
				t.Fatalf("ring not deterministic for key %d", key)
			}
			if seen[wi] {
				t.Fatalf("worker %d repeated in successor list", wi)
			}
			seen[wi] = true
		}
		counts[s1[0]]++
	}
	// 64 virtual points per worker keep the split rough but never
	// degenerate: every worker owns a real share of 2000 keys.
	for wi, n := range counts {
		if n < 200 {
			t.Errorf("worker %d owns only %d/2000 keys: placement degenerate (%v)", wi, n, counts)
		}
	}
}

// TestRingStabilityUnderWorkerLoss is the property the fleet's failure
// model rests on: removing one worker re-homes only that worker's keys —
// each to its ring successor — and leaves every other assignment alone, so
// a worker loss never invalidates the surviving workers' caches.
func TestRingStabilityUnderWorkerLoss(t *testing.T) {
	workers := []string{"http://a:1", "http://b:1", "http://c:1"}
	lost := 1 // drop b
	survivors := []string{workers[0], workers[2]}
	full := NewRing(workers, 64)
	reduced := NewRing(survivors, 64)
	// Map reduced-ring worker indices back to full-ring indices.
	toFull := []int{0, 2}

	moved := 0
	for _, key := range ringKeys(2000) {
		succ := full.Successors(key)
		newOwner := toFull[reduced.Successors(key)[0]]
		if succ[0] != lost {
			if newOwner != succ[0] {
				t.Fatalf("key %d moved from surviving worker %d to %d", key, succ[0], newOwner)
			}
			continue
		}
		moved++
		// A lost worker's keys fall exactly to its next surviving successor.
		want := succ[1]
		if want == lost {
			want = succ[2]
		}
		if newOwner != want {
			t.Fatalf("key %d re-homed to %d, want ring successor %d", key, newOwner, want)
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the removed worker; test exercised nothing")
	}
}

func TestRingSingleWorker(t *testing.T) {
	r := NewRing([]string{"http://only:1"}, 8)
	for _, key := range ringKeys(50) {
		if got := r.Successors(key)[0]; got != 0 {
			t.Fatalf("single-worker ring routed key to %d", got)
		}
	}
}
