package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newTestWorld(t testing.TB, nodes, perNode int) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(nodes)
	w, err := NewWorld(eng, &cfg, perNode)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

func TestWorldLayout(t *testing.T) {
	_, w := newTestWorld(t, 3, 4)
	if w.Size() != 12 {
		t.Fatalf("Size = %d, want 12", w.Size())
	}
	for r := 0; r < 12; r++ {
		rk := w.Rank(r)
		if rk.Node() != r/4 || rk.Core() != r%4 {
			t.Fatalf("rank %d placed at node %d core %d", r, rk.Node(), rk.Core())
		}
	}
}

func TestNewWorldRejectsOversubscription(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(2)
	if _, err := NewWorld(eng, &cfg, cfg.CoresPerNode+1); err == nil {
		t.Fatal("NewWorld accepted ranksPerNode > CoresPerNode")
	}
	if _, err := NewWorld(eng, &cfg, 0); err == nil {
		t.Fatal("NewWorld accepted ranksPerNode = 0")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, w := newTestWorld(t, 2, 4)
	var minExit sim.Time = 1 << 30
	err := w.Launch(func(r *Rank) {
		// Staggered arrivals.
		eng.ScheduleAsOf(sim.Time(r.Rank())*0.5, 0, func() {
			w.Comm().BarrierCont(r, func() {
				if r.Now() < minExit {
					minExit = r.Now()
				}
				r.Retire()
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	lastArrival := sim.Time(7) * 0.5
	if minExit < lastArrival {
		t.Fatalf("a rank left the barrier at %v, before last arrival %v", minExit, lastArrival)
	}
}

func TestBarrierRepeats(t *testing.T) {
	_, w := newTestWorld(t, 2, 2)
	count := 0
	err := w.Launch(func(r *Rank) {
		barriers(w.Comm(), r, 5, func() {
			count++
			r.Retire()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("%d ranks completed, want 4", count)
	}
}

// barriers passes r through k consecutive barriers on c, then runs cont.
func barriers(c *Comm, r *Rank, k int, cont func()) {
	if k == 0 {
		cont()
		return
	}
	c.BarrierCont(r, func() { barriers(c, r, k-1, cont) })
}

// fetchAdds issues k sequential Fetch_and_op(+delta) calls on (target,
// offset) through fop, passing each old value to each, then runs cont.
func fetchAdds(fop func(int, int, int64, func(int64)), target, offset int, delta int64, k int, each func(int64), cont func()) {
	if k == 0 {
		cont()
		return
	}
	fop(target, offset, delta, func(old int64) {
		each(old)
		fetchAdds(fop, target, offset, delta, k-1, each, cont)
	})
}

func TestSplitTypeShared(t *testing.T) {
	_, w := newTestWorld(t, 2, 3)
	comms := make([]*Comm, 6)
	ranks := make([]int, 6)
	err := w.Launch(func(r *Rank) {
		c := w.SplitTypeShared(r)
		comms[r.Rank()] = c
		ranks[r.Rank()] = c.RankOf(r)
		r.Retire()
	})
	if err != nil {
		t.Fatal(err)
	}
	if comms[0] != comms[1] || comms[1] != comms[2] {
		t.Fatal("node 0 ranks got different node communicators")
	}
	if comms[3] != comms[4] || comms[4] != comms[5] {
		t.Fatal("node 1 ranks got different node communicators")
	}
	if comms[0] == comms[3] {
		t.Fatal("different nodes share a node communicator")
	}
	for i := 0; i < 6; i++ {
		if ranks[i] != i%3 {
			t.Fatalf("world rank %d has node rank %d, want %d", i, ranks[i], i%3)
		}
		if comms[i].Size() != 3 {
			t.Fatalf("node comm size = %d, want 3", comms[i].Size())
		}
	}
}

func TestWinAllocateAndAtomics(t *testing.T) {
	_, w := newTestWorld(t, 2, 2)
	const perRank = 100
	sum := int64(0)
	err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "ctr", 4, func(win *Win) {
			fop := win.NewFetchAndOpCont(r)
			fetchAdds(fop, 0, 0, 1, perRank, func(int64) {}, func() {
				w.Comm().BarrierCont(r, func() {
					if r.Rank() != 0 {
						r.Retire()
						return
					}
					fop(0, 0, 0, func(v int64) {
						sum = v
						r.Retire()
					})
				})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4*perRank {
		t.Fatalf("counter = %d, want %d", sum, 4*perRank)
	}
}

func TestFetchAndOpReturnsDistinctOldValues(t *testing.T) {
	_, w := newTestWorld(t, 2, 4)
	seen := map[int64]int{}
	err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "ctr", 1, func(win *Win) {
			fetchAdds(win.NewFetchAndOpCont(r), 0, 0, 1, 10,
				func(old int64) { seen[old]++ }, r.Retire)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 80 {
		t.Fatalf("got %d distinct ticket values, want 80", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("ticket %d issued %d times", v, n)
		}
		if v < 0 || v >= 80 {
			t.Fatalf("ticket %d out of range", v)
		}
	}
}

// lockRounds drives every rank of w as a machine rank (World.Launch)
// through rounds exclusive lock/unlock cycles on its node's shared window,
// the production lock path. Each cycle holds the lock for hold and, after
// the release, computes for think before the next attempt. onGrant runs
// when a rank obtains the lock, onRelease right after its release. It
// returns the node windows.
func lockRounds(t testing.TB, w *World, rounds int, hold, think sim.Time, onGrant, onRelease func(*Rank)) []*Win {
	t.Helper()
	wins := make([]*Win, w.Cluster().Nodes)
	err := w.Launch(func(r *Rank) {
		w.SplitTypeShared(r).WinAllocateSharedCont(r, "q", 1, func(win *Win) {
			wins[r.Node()] = win
			eng := w.Engine()
			left := rounds
			var lock func()
			unlock := win.NewUnlockCont(r, 0, func(release sim.Time) {
				onRelease(r)
				if left--; left == 0 {
					r.Retire()
					return
				}
				eng.ScheduleAsOf(release+r.ComputeCost(think), release, lock)
			})
			lock = win.NewLockCont(r, 0, func() {
				onGrant(r)
				now := eng.Now()
				unlock(now+hold, now)
			})
			lock()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return wins
}

func TestExclusiveLockMutualExclusion(t *testing.T) {
	_, w := newTestWorld(t, 1, 8)
	inside, peak := 0, 0
	wins := lockRounds(t, w, 5, 10*sim.Microsecond, 0,
		func(*Rank) {
			inside++
			if inside > peak {
				peak = inside
			}
		},
		func(*Rank) { inside-- })
	if peak != 1 {
		t.Fatalf("peak lock holders = %d, want 1", peak)
	}
	if got := wins[0].LockAcquisitions; got != 40 {
		t.Fatalf("LockAcquisitions = %d, want 40", got)
	}
}

func TestLockAttemptsGrowUnderContention(t *testing.T) {
	attemptsFor := func(perNode int) float64 {
		_, w := newTestWorld(t, 1, perNode)
		nop := func(*Rank) {}
		win := lockRounds(t, w, 20, 2*sim.Microsecond, 0, nop, nop)[0]
		return float64(win.LockAttempts) / float64(win.LockAcquisitions)
	}
	solo := attemptsFor(1)
	crowd := attemptsFor(16)
	if solo != 1 {
		t.Fatalf("uncontended attempts per acquisition = %v, want 1", solo)
	}
	if crowd < 1.5 {
		t.Fatalf("contended attempts per acquisition = %v, want noticeably > 1", crowd)
	}
}

func TestLockFairnessIsNotStarvation(t *testing.T) {
	// Polling locks are unfair, but over many acquisitions every rank must
	// make progress (the executor's liveness depends on it).
	_, w := newTestWorld(t, 1, 8)
	acq := make([]int, 8)
	lockRounds(t, w, 50, 2*sim.Microsecond, 10*sim.Microsecond,
		func(*Rank) {},
		func(r *Rank) { acq[r.Core()]++ })
	for i, n := range acq {
		if n != 50 {
			t.Fatalf("rank %d completed %d acquisitions, want 50", i, n)
		}
	}
}

func TestRemoteAtomicSlowerThanLocal(t *testing.T) {
	eng, w := newTestWorld(t, 2, 2)
	var localT, remoteT sim.Time
	// timed issues one Fetch_and_op from r and stores its latency.
	timed := func(r *Rank, win *Win, out *sim.Time) {
		t0 := r.Now()
		win.NewFetchAndOpCont(r)(0, 0, 1, func(int64) {
			*out = r.Now() - t0
			r.Retire()
		})
	}
	err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "x", 1, func(win *Win) {
			w.Comm().BarrierCont(r, func() {
				switch r.Rank() {
				case 1: // same node as target rank 0
					timed(r, win, &localT)
				case 2: // different node; start later to avoid port interference
					now := eng.Now()
					eng.ScheduleAsOf(now+sim.Millisecond, now, func() { timed(r, win, &remoteT) })
				default:
					r.Retire()
				}
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if remoteT <= localT {
		t.Fatalf("remote atomic %v not slower than local %v", remoteT, localT)
	}
	if remoteT < 2*w.Cluster().Net.Latency {
		t.Fatalf("remote atomic %v cheaper than a round trip %v", remoteT, 2*w.Cluster().Net.Latency)
	}
}

func TestSharedWindowDirectAccess(t *testing.T) {
	_, w := newTestWorld(t, 1, 2)
	var got int64
	err := w.Launch(func(r *Rank) {
		nc := w.SplitTypeShared(r)
		nc.WinAllocateSharedCont(r, "s", 4, func(win *Win) {
			if r.Rank() == 0 {
				win.Shared(r, 1)[3] = 77
			}
			nc.BarrierCont(r, func() {
				if r.Rank() == 1 {
					got = win.Shared(r, 1)[3]
				}
				r.Retire()
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("shared load = %d, want 77", got)
	}
}

func TestWinAllocateSharedRejectsMultiNodeComm(t *testing.T) {
	_, w := newTestWorld(t, 2, 1)
	panicked := 0
	err := w.Launch(func(r *Rank) {
		defer func() {
			if recover() != nil {
				panicked++
			}
			r.Retire()
		}()
		w.Comm().WinAllocateSharedCont(r, "bad", 1, func(*Win) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	if panicked != 2 {
		t.Fatalf("%d ranks panicked, want 2: WinAllocateSharedCont must reject a multi-node communicator", panicked)
	}
}

func TestComputeScalesWithNodeSpeed(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPCHetero(2, 1.0, 0.5)
	w, err := NewWorld(eng, &cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]sim.Time, 2)
	if err := w.Launch(func(r *Rank) {
		times[r.Rank()] = r.ComputeCost(1)
		r.Retire()
	}); err != nil {
		t.Fatal(err)
	}
	if times[0] != 1 {
		t.Fatalf("full-speed node took %v, want 1", times[0])
	}
	if times[1] != 2 {
		t.Fatalf("half-speed node took %v, want 2", times[1])
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine(99)
		cfg := cluster.MiniHPC(2)
		w, err := NewWorld(eng, &cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		if err := w.Launch(func(r *Rank) {
			w.Comm().WinAllocateCont(r, "ctr", 1, func(win *Win) {
				fop := win.NewFetchAndOpCont(r)
				var take func()
				got := func(tkt int64) {
					if tkt >= 200 {
						w.Comm().BarrierCont(r, func() {
							last = r.Now()
							r.Retire()
						})
						return
					}
					now := eng.Now()
					d := r.ComputeCost(sim.Time(tkt%7+1) * 10 * sim.Microsecond)
					eng.ScheduleAsOf(now+d, now, take)
				}
				take = func() { fop(0, 0, 1, got) }
				take()
			})
		}); err != nil {
			t.Fatal(err)
		}
		return last
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs finished at %v and %v", a, b)
	}
}

func BenchmarkFetchAndOpLocal(b *testing.B) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(1)
	w, _ := NewWorld(eng, &cfg, 2)
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "b", 1, func(win *Win) {
			fop := win.NewFetchAndOpCont(r)
			left := b.N
			var next func(int64)
			next = func(int64) {
				if left--; left <= 0 {
					r.Retire()
					return
				}
				fop(0, 0, 1, next)
			}
			fop(0, 0, 1, next)
		})
	}); err != nil {
		b.Fatal(err)
	}
}
