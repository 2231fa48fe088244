package sim

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestInterruptAbortsRun verifies the external-interrupt contract: a run
// whose interrupt flag is set stops with ErrInterrupted within one polling
// stride, whether the chain goes through the queue or is absorbed inline.
func TestInterruptAbortsRun(t *testing.T) {
	e := NewEngine(1)
	var flag atomic.Bool
	e.SetInterrupt(&flag)

	// Two self-perpetuating chains that would run forever: one through the
	// queue, one absorbed inline.
	fired := 0
	var tick, spin func()
	tick = func() {
		fired++
		if fired == 2*interruptStride {
			flag.Store(true)
		}
		e.Schedule(e.Now()+1, tick)
	}
	spin = func() {
		now := e.Now()
		e.AbsorbAsOf(now+0.5, now, spin)
	}
	e.Schedule(0, tick)
	e.Schedule(0, spin)

	err := e.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run = %v, want ErrInterrupted", err)
	}
	if fired < 2*interruptStride || fired > 3*interruptStride {
		t.Fatalf("fired %d events; interrupt should stop within one stride", fired)
	}
}

// TestInterruptUnsetIsHarmless locks down that installing a never-set flag
// does not change a run's outcome or timing.
func TestInterruptUnsetIsHarmless(t *testing.T) {
	run := func(flag *atomic.Bool) (Time, error) {
		e := NewEngine(7)
		e.SetInterrupt(flag)
		var end Time
		left := 3 * interruptStride
		var step func()
		step = func() {
			if left--; left < 0 {
				end = e.Now()
				return
			}
			e.Schedule(e.Now()+0.5, step)
		}
		e.Schedule(0, step)
		err := e.Run()
		return end, err
	}
	var flag atomic.Bool
	gotFlag, err1 := run(&flag)
	gotNil, err2 := run(nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v, %v", err1, err2)
	}
	if gotFlag != gotNil {
		t.Fatalf("flagged run ended at %v, plain run at %v", gotFlag, gotNil)
	}
}

// TestResetClearsInterrupt verifies that Reset detaches the previous run's
// flag so pooled engines never observe a stale cancellation.
func TestResetClearsInterrupt(t *testing.T) {
	e := NewEngine(1)
	var flag atomic.Bool
	flag.Store(true)
	e.SetInterrupt(&flag)
	e.Reset(2)

	ran := 0
	for i := 0; i < 2*interruptStride; i++ {
		e.Schedule(Time(i), func() { ran++ })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if ran != 2*interruptStride {
		t.Fatalf("ran %d events, want %d", ran, 2*interruptStride)
	}
}
