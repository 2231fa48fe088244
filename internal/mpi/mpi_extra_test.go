package mpi

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestCollectiveKindMismatchPanics(t *testing.T) {
	_, w := newTestWorld(t, 1, 2)
	panicked := false
	err := w.Launch(func(r *Rank) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		if r.Rank() == 0 {
			w.Comm().BarrierCont(r, r.Retire)
		} else {
			w.Comm().WinAllocateCont(r, "w", 1, func(*Win) { r.Retire() })
		}
	})
	if !panicked {
		t.Fatal("mismatched collectives did not panic")
	}
	// Rank 0 waits at a barrier its partner never enters.
	if err == nil || !strings.Contains(err.Error(), "ranks [0 1] never retired") {
		t.Fatalf("Launch = %v, want both ranks reported stalled", err)
	}
}

// TestLaunchReportsStalledRanks pins Launch's stall check: a rank whose
// machine drops its continuation never retires, and the error names it.
func TestLaunchReportsStalledRanks(t *testing.T) {
	_, w := newTestWorld(t, 2, 2)
	err := w.Launch(func(r *Rank) {
		w.Comm().BarrierCont(r, func() {
			if r.Rank() != 2 {
				r.Retire()
			}
		})
	})
	if err == nil {
		t.Fatal("Launch reported no stall")
	}
	if !strings.Contains(err.Error(), "1 of 4 ranks stalled") || !strings.Contains(err.Error(), "ranks [2] never retired") {
		t.Fatalf("Launch = %q, want rank 2 named as stalled", err)
	}
	// A world whose ranks all retire launches cleanly.
	_, w = newTestWorld(t, 2, 2)
	if err := w.Launch(func(r *Rank) { w.Comm().BarrierCont(r, r.Retire) }); err != nil {
		t.Fatalf("clean Launch = %v", err)
	}
}

func TestWinAccountingCounters(t *testing.T) {
	_, w := newTestWorld(t, 1, 4)
	var win *Win
	err := w.Launch(func(r *Rank) {
		w.SplitTypeShared(r).WinAllocateSharedCont(r, "acc", 1, func(wn *Win) {
			win = wn
			eng := w.Engine()
			fop := wn.NewFetchAndOpCont(r)
			left := 3
			var lock func()
			next := func(int64) {
				if left--; left > 0 {
					lock()
					return
				}
				r.Retire()
			}
			unlock := wn.NewUnlockCont(r, 0, func(sim.Time) { fop(0, 0, 1, next) })
			lock = wn.NewLockCont(r, 0, func() {
				now := eng.Now()
				unlock(now, now)
			})
			lock()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if win.LockAcquisitions != 12 {
		t.Fatalf("LockAcquisitions = %d, want 12", win.LockAcquisitions)
	}
	if win.LockAttempts < 12 {
		t.Fatalf("LockAttempts = %d, want >= 12", win.LockAttempts)
	}
	if win.AtomicOps != 12 {
		t.Fatalf("AtomicOps = %d, want 12", win.AtomicOps)
	}
	if got := win.Shared(w.Rank(0), 0)[0]; got != 12 {
		t.Fatalf("counter = %d, want 12", got)
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	_, w := newTestWorld(t, 1, 1)
	panicked := false
	func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		_ = w.Launch(func(r *Rank) {
			w.SplitTypeShared(r).WinAllocateSharedCont(r, "x", 1, func(win *Win) {
				now := w.Engine().Now()
				win.NewUnlockCont(r, 0, func(sim.Time) {})(now, now)
			})
		})
	}()
	if !panicked {
		t.Fatal("unlock without lock did not panic")
	}
}

func TestSharedAccessValidation(t *testing.T) {
	// Direct access panics on a non-shared window, and on a shared window
	// from a rank of another node.
	_, w := newTestWorld(t, 2, 2)
	plain, remote := 0, 0
	nodeWins := make([]*Win, 2)
	try := func(count *int, f func()) {
		defer func() {
			if recover() != nil {
				*count++
			}
		}()
		f()
	}
	err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "plain", 1, func(win *Win) {
			try(&plain, func() { win.Shared(r, 0) })
			w.SplitTypeShared(r).WinAllocateSharedCont(r, "node", 1, func(nw *Win) {
				nodeWins[r.Node()] = nw
				w.Comm().BarrierCont(r, func() {
					try(&remote, func() { nodeWins[1-r.Node()].Shared(r, 0) })
					r.Retire()
				})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain != 4 {
		t.Fatalf("%d panics on the non-shared window, want 4 (every rank)", plain)
	}
	if remote != 4 {
		t.Fatalf("%d panics on another node's shared window, want 4 (every rank)", remote)
	}
}

func TestManyRanksBarrierScales(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(16)
	w, err := NewWorld(eng, &cfg, 16) // 256 ranks
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	if err := w.Launch(func(r *Rank) {
		barriers(w.Comm(), r, 3, func() {
			done++
			r.Retire()
		})
	}); err != nil {
		t.Fatal(err)
	}
	if done != 256 {
		t.Fatalf("%d ranks finished, want 256", done)
	}
}
