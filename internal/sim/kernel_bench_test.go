package sim

import (
	"testing"
)

// Kernel microbenchmarks for the discrete-event hot path. Run with
//
//	go test ./internal/sim -bench Kernel -benchmem
//
// The alloc columns are the regression signal: a machine's timed steps must
// report 0 allocs/op in steady state.

// chain starts a continuation machine that takes n timed steps of d, each
// scheduled (or absorbed, when absorb is set) at (now+d, now).
func chain(e *Engine, n int, d Time, absorb bool) {
	var step func()
	step = func() {
		if n--; n < 0 {
			return
		}
		now := e.Now()
		if absorb {
			e.AbsorbAsOf(now+d, now, step)
		} else {
			e.ScheduleAsOf(now+d, now, step)
		}
	}
	e.Schedule(0, step)
}

// BenchmarkKernelSelfSleep measures one machine stepping alone: every step
// is the next event, so AbsorbAsOf runs it inline without a queue
// round-trip.
func BenchmarkKernelSelfSleep(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	chain(e, b.N, Microsecond, true)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelManyMachines measures 256 interleaved machines: one queue
// push and pop per step at a realistic large-P queue depth.
func BenchmarkKernelManyMachines(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const machines = 256
	per := b.N/machines + 1
	for i := 0; i < machines; i++ {
		chain(e, per, Time(i%17+1)*Microsecond, false)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelScheduleCallback measures the plain Schedule entry point
// (born = now) with a reused callback.
func BenchmarkKernelScheduleCallback(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var fire func()
	fire = func() {
		if n < b.N {
			n++
			e.Schedule(e.Now()+Microsecond, fire)
		}
	}
	e.Schedule(0, fire)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
