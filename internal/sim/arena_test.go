package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEngineResetMatchesFresh verifies the arena-pooling contract: a Reset
// engine is observationally identical to a fresh one — same clock, same RNG
// stream, same event order — even after a run that exercised the queue's
// layouts and the payload free-list.
func TestEngineResetMatchesFresh(t *testing.T) {
	scenario := func(e *Engine) []Time {
		var fired []Time
		for i := 0; i < 3; i++ {
			i, j := i, 0
			var step func()
			step = func() {
				if j > 0 {
					fired = append(fired, e.Now()+Time(e.Rand().Float64())*Nanosecond)
				}
				if j++; j <= 4 {
					now := e.Now()
					e.AbsorbAsOf(now+Time(i+1)*Microsecond*Time(j), now, step)
				}
			}
			e.Schedule(0, step)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	fresh := scenario(NewEngine(42))

	e := NewEngine(7)
	scenario(e) // dirty the engine with a different seed's run
	e.Reset(42)
	if e.Now() != 0 || e.PushStamp() != 0 {
		t.Fatalf("Reset left state: now=%v pushes=%d", e.Now(), e.PushStamp())
	}
	again := scenario(e)
	if len(fresh) != len(again) {
		t.Fatalf("event counts differ: %d vs %d", len(fresh), len(again))
	}
	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("event %d differs: fresh %v, reset %v", i, fresh[i], again[i])
		}
	}
}

// TestEngineResetRefusesDirtyEngine pins the safety contract: an engine
// with pending events must not be pooled.
func TestEngineResetRefusesDirtyEngine(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1*Microsecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted an engine with pending events")
		}
	}()
	e.Reset(2)
}

// TestQueueOrderAcrossLayouts drives the event queue through every layout —
// front buffer, sorted gap buffer, heapified spill, and the low-water
// re-sort back to the array — and asserts the firing order is the exact
// (t, born, seq) total order throughout.
func TestQueueOrderAcrossLayouts(t *testing.T) {
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(9))
	const n = 4000 // far beyond arrayModeMax: forces heapify and the drain re-sort
	type key struct {
		t   Time
		seq int
	}
	want := make([]key, 0, n)
	got := make([]key, 0, n)
	for i := 0; i < n; i++ {
		// Clustered times with deliberate duplicates to exercise tie-breaks.
		at := Time(rng.Intn(500)) * Microsecond
		k := key{t: at, seq: i}
		want = append(want, k)
		e.Schedule(at, func() { got = append(got, k) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All events were scheduled at now=0, so the expected order is (t, then
	// scheduling order) — a stable sort by time.
	sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
	if len(got) != n {
		t.Fatalf("fired %d of %d events", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired out of order: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
