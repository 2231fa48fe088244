package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestScheduleTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(10, func() {
		e.Schedule(3, func() { // in the past; must fire at t=10
			if e.Now() != 10 {
				t.Errorf("past event fired at %v, want 10", e.Now())
			}
			fired = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
}

// sleeps runs a simulated process as a continuation chain: it calls
// visit, then sleeps each duration in turn (a step scheduled at now+d with
// born now), calling visit after every wake-up.
func sleeps(e *Engine, durs []Time, visit func()) {
	i := 0
	var step func()
	step = func() {
		visit()
		if i < len(durs) {
			d := durs[i]
			i++
			now := e.Now()
			e.ScheduleAsOf(now+d, now, step)
		}
	}
	e.Schedule(e.Now(), step)
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	sleeps(e, []Time{1.5, 0.25}, func() { at = append(at, e.Now()) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 1.5, 1.75}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("times = %v, want %v", at, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var log []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Time(i+1) * 0.1
			k := 0
			sleeps(e, []Time{d, d, d}, func() {
				if k++; k > 1 {
					log = append(log, fmt.Sprintf("%s@%.2f", name, float64(e.Now())))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("log lengths %d, %d; want 12", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestZeroAndNegativeSleepYields checks that a zero or negative delay is a
// reschedule point: the step fires at the current instant (negative times
// clamp to now), behind every event already queued for it.
func TestZeroAndNegativeSleepYields(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(0, func() {
		order = append(order, "a1")
		e.ScheduleAsOf(e.Now(), e.Now(), func() { order = append(order, "a2") })
	})
	e.Schedule(0, func() {
		order = append(order, "b1")
		e.ScheduleAsOf(e.Now()-5, e.Now(), func() {
			if e.Now() != 0 {
				t.Errorf("negative sleep woke at %v, want 0", e.Now())
			}
			order = append(order, "b2")
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleAsOfOrdersByBorn pins the replay position of ScheduleAsOf: at
// equal firing time, an event born earlier fires before one born later,
// regardless of the order the two were scheduled in.
func TestScheduleAsOfOrdersByBorn(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(4, func() {
		e.ScheduleAsOf(6, 4, func() { order = append(order, "born@4") })
		e.ScheduleAsOf(6, 1, func() { order = append(order, "born@1") })
		e.ScheduleAsOf(6, 4, func() { order = append(order, "born@4-later") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"born@1", "born@4", "born@4-later"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// serve reserves service on s for a request arriving now and schedules
// done at the completion, the way the runtime models wait for a port.
func serve(e *Engine, s *Server, service Time, done func()) {
	now := e.Now()
	fin := s.ServeAsync(now, service)
	e.ScheduleAsOf(now+(fin-now), now, done)
}

func TestServerSerializesRequests(t *testing.T) {
	e := NewEngine(1)
	var s Server
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Schedule(0, func() {
			serve(e, &s, 2, func() { finish = append(finish, e.Now()) })
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 4, 6}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v", finish, want)
		}
	}
}

func TestServerIdleGapDoesNotAccumulate(t *testing.T) {
	e := NewEngine(1)
	var s Server
	var second Time
	e.Schedule(0, func() {
		serve(e, &s, 1, func() { // finishes at t=1
			e.Schedule(e.Now()+9, func() { // server idle 1..10
				serve(e, &s, 1, func() { second = e.Now() }) // at 11, not 2+...
			})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if second != 11 {
		t.Fatalf("second completion at %v, want 11", second)
	}
}

// TestServerReportsWaitTime checks the queueing delay a request sees: its
// service begins when every earlier reservation has completed.
func TestServerReportsWaitTime(t *testing.T) {
	var s Server
	var waits []Time
	for i := 0; i < 3; i++ {
		done := s.ServeAsync(0, 5)
		waits = append(waits, done-5)
	}
	want := []Time{0, 5, 10}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("waits = %v, want %v", waits, want)
		}
	}
}

func TestServeAsync(t *testing.T) {
	var s Server
	if got := s.ServeAsync(10, 2); got != 12 {
		t.Fatalf("first async completion = %v, want 12", got)
	}
	if got := s.ServeAsync(10, 2); got != 14 {
		t.Fatalf("queued async completion = %v, want 14", got)
	}
	if got := s.ServeAsync(100, 1); got != 101 {
		t.Fatalf("idle-gap async completion = %v, want 101", got)
	}
}

func TestEngineRandDeterminism(t *testing.T) {
	draw := func(seed int64) []float64 {
		e := NewEngine(seed)
		out := make([]float64, 5)
		for i := range out {
			out[i] = e.Rand().Float64()
		}
		return out
	}
	a, b := draw(42), draw(42)
	c := draw(43)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical sequences")
	}
}

// Property: for any set of random sleep programs, each process observes
// non-decreasing time, and the engine clock ends at the max finish time.
func TestQuickVirtualTimeMonotonic(t *testing.T) {
	f := func(seed int64, nProcsRaw uint8) bool {
		nProcs := int(nProcsRaw%8) + 1
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		var maxEnd Time
		ends := make([]Time, nProcs)
		for i := 0; i < nProcs; i++ {
			i := i
			steps := rng.Intn(20) + 1
			durs := make([]Time, steps)
			for j := range durs {
				durs[j] = Time(rng.Float64())
			}
			prev := Time(0)
			sleeps(e, durs, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
				ends[i] = e.Now()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for _, end := range ends {
			if end > maxEnd {
				maxEnd = end
			}
		}
		return ok && e.Now() == maxEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Server is work-conserving and serial. Requests are served in
// arrival order; each service interval starts at the later of its arrival
// and the previous completion, lasts exactly its demand, and never overlaps
// another — so the busy time equals the sum of the demands.
func TestQuickServerConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		var s Server
		type req struct{ arrive, demand, done Time }
		var served []req
		var total Time
		for i := 0; i < n; i++ {
			d := Time(rng.Float64() + 0.01)
			total += d
			e.Schedule(Time(rng.Float64()*2), func() {
				r := req{arrive: e.Now(), demand: d}
				r.done = s.ServeAsync(r.arrive, d)
				served = append(served, r)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		var busy, prevDone Time
		for i, r := range served {
			begin := r.arrive
			if i > 0 && prevDone > begin {
				begin = prevDone
			}
			if r.done != begin+r.demand {
				return false
			}
			busy += r.done - begin
			prevDone = r.done
		}
		const eps = 1e-12
		return len(served) == n && absT(busy-total) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func absT(t Time) Time {
	if t < 0 {
		return -t
	}
	return t
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	left := b.N
	var step func()
	step = func() {
		if left--; left > 0 {
			now := e.Now()
			e.ScheduleAsOf(now+1e-6, now, step)
		}
	}
	e.Schedule(0, step)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
