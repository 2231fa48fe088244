package sim

import (
	"testing"
)

// TestSteadyStateSleepAllocatesNothing is the allocation regression gate for
// the kernel hot path: once an engine and its machines exist, a machine's
// timed step (a queued ScheduleAsOf, or an inline AbsorbAsOf) must not
// allocate. The budget covers only fixed setup (engine, closures, queue
// growth), so it stays constant while the step count scales.
func TestSteadyStateSleepAllocatesNothing(t *testing.T) {
	const sleeps = 100_000
	allocs := testing.AllocsPerRun(3, func() {
		e := NewEngine(1)
		for i := 0; i < 4; i++ {
			left := sleeps / 4
			absorb := i%2 == 0
			var step func()
			step = func() {
				if left--; left < 0 {
					return
				}
				now := e.Now()
				if absorb {
					e.AbsorbAsOf(now+Microsecond, now, step)
				} else {
					e.ScheduleAsOf(now+Microsecond, now, step)
				}
			}
			e.Schedule(0, step)
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	// ~20 fixed allocations observed; anything growing with the step count
	// would show up as thousands.
	if allocs > 200 {
		t.Fatalf("steady-state run allocated %.0f times for %d steps; the event path must be allocation-free", allocs, sleeps)
	}
}

// TestEqualTimestampFIFOAcrossEventKinds locks in the seq tie-break across
// the scheduling entry points: Schedule, ScheduleAsOf with born = now, and
// an AbsorbAsOf that cannot run inline (an equal-key event is queued) all
// fire strictly in call order at the same instant.
func TestEqualTimestampFIFOAcrossEventKinds(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(2, func() {
		e.Schedule(2, func() { order = append(order, "schedule-1") })
		e.ScheduleAsOf(2, 2, func() { order = append(order, "asof-1") })
		e.Schedule(2, func() { order = append(order, "schedule-2") })
		e.AbsorbAsOf(2, 2, func() { order = append(order, "absorb-1") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"schedule-1", "asof-1", "schedule-2", "absorb-1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie-break order = %v, want %v", order, want)
		}
	}
}

// TestHeapStressOrdering drives the 4-ary heap through thousands of
// interleaved pushes and pops with many duplicate timestamps and checks that
// every event fires exactly once and virtual time never runs backwards.
func TestHeapStressOrdering(t *testing.T) {
	e := NewEngine(99)
	const n = 5000
	var fired []int
	seq := 0
	var last Time
	// Schedule from inside callbacks too, so the heap churns mid-run.
	for i := 0; i < n; i++ {
		i := i
		tm := Time(e.rng.Intn(50)) // heavy timestamp collisions
		e.Schedule(tm, func() {
			if e.Now() < last {
				t.Fatalf("time ran backwards: %v after %v", e.Now(), last)
			}
			last = e.Now()
			fired = append(fired, i)
			if i%7 == 0 {
				j := n + seq
				seq++
				e.Schedule(e.Now()+Time(e.rng.Intn(3)), func() { fired = append(fired, j) })
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n+seq {
		t.Fatalf("fired %d events, want %d", len(fired), n+seq)
	}
	seen := make([]bool, n+seq)
	for _, id := range fired {
		if seen[id] {
			t.Fatalf("event %d fired twice", id)
		}
		seen[id] = true
	}
}

// TestReentrantRunPanics pins the guard against driving an engine that is
// already running.
func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine(1)
	panicked := false
	e.Schedule(1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		_ = e.Run() // re-entrant: must panic, not recurse
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("re-entrant Run did not panic")
	}
}

// TestAbsorbAsOfRunsInlineOnlyWhenNext pins AbsorbAsOf's contract: the
// callback runs inline (no queue insertion) exactly when it would be the
// next event popped, and is queued otherwise — with the same firing order
// either way.
func TestAbsorbAsOfRunsInlineOnlyWhenNext(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(0, func() {
		e.Schedule(5, func() { order = append(order, "queued@5") })
		before := e.PushStamp()
		e.AbsorbAsOf(3, 0, func() {
			if e.PushStamp() != before {
				t.Error("absorbable event went through the queue")
			}
			if e.Now() != 3 || e.EventScheduledAt() != 0 {
				t.Errorf("absorbed event ran at (%v, %v), want (3, 0)", e.Now(), e.EventScheduledAt())
			}
			order = append(order, "inline@3")
			e.AbsorbAsOf(7, 3, func() { order = append(order, "deferred@7") })
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"inline@3", "queued@5", "deferred@7"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}

	// With absorption off every call is queued, in the same order.
	e = NewEngine(1)
	e.SetAbsorb(false)
	n := 0
	e.Schedule(0, func() {
		before := e.PushStamp()
		e.AbsorbAsOf(1, 0, func() {
			if e.PushStamp() == before {
				t.Error("absorption ran inline while disabled")
			}
			n++
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("absorbed callback ran %d times, want 1", n)
	}
}

// TestAbsorbDepthBounded checks that an unbounded contention-free chain
// unwinds through the queue every absorbDepthMax steps instead of growing
// the host stack without limit.
func TestAbsorbDepthBounded(t *testing.T) {
	e := NewEngine(1)
	const steps = 10 * absorbDepthMax
	left, maxDepth := steps, 0
	var step func()
	step = func() {
		if e.absorbDepth > maxDepth {
			maxDepth = e.absorbDepth
		}
		if left--; left > 0 {
			now := e.Now()
			e.AbsorbAsOf(now+1, now, step)
		}
	}
	e.Schedule(0, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if left != 0 || e.Now() != steps-1 {
		t.Fatalf("chain ended at t=%v with %d steps left", e.Now(), left)
	}
	if maxDepth != absorbDepthMax {
		t.Fatalf("max absorb depth %d, want %d", maxDepth, absorbDepthMax)
	}
}
