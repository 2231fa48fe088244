package mpi

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// literalLockCont is the reference MPI_Win_lock issuer the coalesced port
// must reproduce: the lock-polling protocol taken literally, one engine
// event per step. Every attempt is a ServeAsync round through the same
// port, its check fires at now+(done−now) in an event scheduled at the
// arrival, and a failed check backs off PollInterval before the next
// attempt.
func literalLockCont(w *Win, target int, cont func()) func() {
	wld := w.world
	eng := wld.eng
	mem := &wld.cfg.Mem
	pt := wld.memPort[w.targetNode(target)]
	var attempt func()
	check := func() {
		ls := &w.locks[target]
		if ls.excl {
			now := eng.Now()
			eng.ScheduleAsOf(now+mem.PollInterval, now, attempt)
			return
		}
		ls.excl = true
		w.LockAcquisitions++
		cont()
	}
	attempt = func() {
		w.LockAttempts++
		now := eng.Now()
		done := pt.srv.ServeAsync(now, mem.LockAttempt)
		eng.ScheduleAsOf(now+(done-now), now, check)
	}
	return attempt
}

// stormCase is one randomized lock race on a single node.
type stormCase struct {
	p, rounds int
	mem       cluster.MemParams
	seed      int64
}

func (c stormCase) String() string {
	return fmt.Sprintf("P=%d rounds=%d attempt=%v poll=%v op=%v seed=%d",
		c.p, c.rounds, c.mem.LockAttempt, c.mem.PollInterval, c.mem.SharedWinOp, c.seed)
}

// grant is one lock acquisition: who got the lock, and when.
type grant struct {
	rank int
	at   sim.Time
}

// stormResult is everything the oracle compares between the two issuers.
type stormResult struct {
	grants                 []grant
	attempts, acquisitions int64
	busyUntil              sim.Time
}

// runStorm races c.p ranks of one node on its shared-window lock, each for
// c.rounds critical sections, building every rank's lock issuer with
// newLock. Hold and think times come from per-rank generators seeded by
// (seed, rank), so both issuers see identical per-rank sequences whatever
// order the ranks run in. A critical section sometimes issues a
// Fetch_and_op on the same port before it unlocks, so real arrivals
// interleave with the poll storm; zero hold and think times force
// same-instant ties.
func runStorm(t *testing.T, c stormCase, newLock func(*Win, *Rank, func()) func()) stormResult {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(1)
	cfg.Mem = c.mem
	w, err := NewWorld(eng, &cfg, c.p)
	if err != nil {
		t.Fatal(err)
	}
	var res stormResult
	var win *Win
	err = w.Launch(func(r *Rank) {
		w.SplitTypeShared(r).WinAllocateSharedCont(r, "q", 1, func(wn *Win) {
			win = wn
			rng := rand.New(rand.NewSource(c.seed*64 + int64(r.Rank())))
			draw := func() sim.Time {
				if rng.Intn(4) == 0 {
					return 0
				}
				return sim.Time(rng.Float64()) * 20 * sim.Microsecond
			}
			left := c.rounds
			fop := wn.NewFetchAndOpCont(r)
			var lock func()
			unlock := wn.NewUnlockCont(r, 0, func(release sim.Time) {
				if left--; left == 0 {
					r.Retire()
					return
				}
				eng.ScheduleAsOf(release+draw(), release, lock)
			})
			lock = newLock(wn, r, func() {
				res.grants = append(res.grants, grant{r.Rank(), eng.Now()})
				hold := draw()
				if rng.Intn(3) == 0 {
					fop(0, 0, 1, func(int64) {
						now := eng.Now()
						unlock(now+hold, now)
					})
					return
				}
				now := eng.Now()
				unlock(now+hold, now)
			})
			lock()
		})
	})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	res.attempts, res.acquisitions = win.LockAttempts, win.LockAcquisitions
	// A zero-length reservation at time zero reads busyUntil back unchanged.
	res.busyUntil = w.memPort[0].srv.ServeAsync(0, 0)
	return res
}

// TestCoalescedLockMatchesLiteralPolling is the port's differential oracle:
// random lock races through the production issuer (NewLockCont, whose
// retries replay arithmetically on the port) and through literalLockCont
// must grant the lock to the same ranks in the same order at bit-identical
// times, count the same attempts and acquisitions, and leave the port busy
// until the same instant. Poll intervals shorter than a lock attempt make
// back-offs overtake queued checks, so replayed steps are registered out of
// time order too.
func TestCoalescedLockMatchesLiteralPolling(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(15))
	var attempts, acquisitions int64
	us := func(lo, hi float64) sim.Time {
		return sim.Time(lo+rng.Float64()*(hi-lo)) * sim.Microsecond
	}
	for i := 0; i < trials; i++ {
		c := stormCase{
			p:      2 + rng.Intn(15),
			rounds: 1 + rng.Intn(12),
			seed:   int64(i),
			mem:    cluster.MiniHPC(1).Mem,
		}
		c.mem.LockAttempt = us(0.1, 3)
		c.mem.SharedWinOp = us(0.05, 1)
		if i%2 == 0 {
			c.mem.PollInterval = us(0.05, 1) * c.mem.LockAttempt / sim.Microsecond
		} else {
			c.mem.PollInterval = us(1, 12)
		}
		got := runStorm(t, c, func(w *Win, r *Rank, cont func()) func() { return w.NewLockCont(r, 0, cont) })
		want := runStorm(t, c, func(w *Win, _ *Rank, cont func()) func() { return literalLockCont(w, 0, cont) })
		if len(got.grants) != len(want.grants) {
			t.Fatalf("%v: %d grants, literal polling made %d", c, len(got.grants), len(want.grants))
		}
		for k := range want.grants {
			if got.grants[k] != want.grants[k] {
				t.Fatalf("%v: grant %d went to rank %d at %v, literal polling gave rank %d at %v",
					c, k, got.grants[k].rank, float64(got.grants[k].at), want.grants[k].rank, float64(want.grants[k].at))
			}
		}
		if got.attempts != want.attempts || got.acquisitions != want.acquisitions {
			t.Fatalf("%v: LockAttempts/LockAcquisitions = %d/%d, literal polling %d/%d",
				c, got.attempts, got.acquisitions, want.attempts, want.acquisitions)
		}
		if got.busyUntil != want.busyUntil {
			t.Fatalf("%v: port busy until %v, literal polling %v", c, float64(got.busyUntil), float64(want.busyUntil))
		}
		attempts += got.attempts
		acquisitions += got.acquisitions
	}
	// The races must actually contend, or the poller path goes untested.
	if attempts < 3*acquisitions {
		t.Fatalf("%d attempts for %d acquisitions: the races barely contend", attempts, acquisitions)
	}
	t.Logf("%d trials: %d lock attempts for %d acquisitions", trials, attempts, acquisitions)
}

// TestSecondLockOnPortPanics pins the port's one-lock binding: lock issuers
// for two different windows on one node must not share its port.
func TestSecondLockOnPortPanics(t *testing.T) {
	_, w := newTestWorld(t, 1, 1)
	var msg string
	err := w.Launch(func(r *Rank) {
		nc := w.SplitTypeShared(r)
		nc.WinAllocateSharedCont(r, "qa", 1, func(qa *Win) {
			nc.WinAllocateSharedCont(r, "qb", 1, func(qb *Win) {
				defer func() {
					msg = fmt.Sprint(recover())
					r.Retire()
				}()
				qa.NewLockCont(r, 0, func() {})
				qa.NewLockCont(r, 0, func() {}) // the same lock again is fine
				qb.NewLockCont(r, 0, func() {})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "qa[0]") || !strings.Contains(msg, "qb[0]") || !strings.Contains(msg, "node 0") {
		t.Fatalf("panic %q, want it to name node 0 and both locks qa[0] and qb[0]", msg)
	}
}

// inFlightPanic runs issue on a one-rank world holding the node's shared
// window "q", and returns what the issue panicked with. A no-op event queued
// at the issuing instant keeps every operation of issue in the queue, so
// none can complete inline before issue returns.
func inFlightPanic(t *testing.T, issue func(r *Rank, win *Win)) string {
	t.Helper()
	_, w := newTestWorld(t, 1, 1)
	var msg string
	err := w.Launch(func(r *Rank) {
		w.SplitTypeShared(r).WinAllocateSharedCont(r, "q", 1, func(win *Win) {
			defer func() {
				msg = fmt.Sprint(recover())
				r.Retire()
			}()
			now := r.Now()
			w.Engine().ScheduleAsOf(now, now, func() {})
			issue(r, win)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestUnlockSecondIssuePanics(t *testing.T) {
	msg := inFlightPanic(t, func(r *Rank, win *Win) {
		win.locks[0].excl = true // held, as after a grant
		unlock := win.NewUnlockCont(r, 0, func(sim.Time) {})
		now := r.Now()
		unlock(now, now)
		unlock(now, now)
	})
	if !strings.Contains(msg, "second unlock") || !strings.Contains(msg, "q[0]") || !strings.Contains(msg, "rank 0") {
		t.Fatalf("panic %q, want a second-unlock panic naming q[0] and rank 0", msg)
	}
}

func TestFetchAndOpSecondIssuePanics(t *testing.T) {
	msg := inFlightPanic(t, func(r *Rank, win *Win) {
		fop := win.NewFetchAndOpCont(r)
		fop(0, 0, 1, func(int64) {})
		fop(0, 0, 1, func(int64) {})
	})
	if !strings.Contains(msg, "second Fetch_and_op") || !strings.Contains(msg, "on q ") || !strings.Contains(msg, "rank 0") {
		t.Fatalf("panic %q, want a second-Fetch_and_op panic naming window q and rank 0", msg)
	}
}

// BenchmarkPortLockStorm measures the coalesced poll replay: 16 ranks of one
// node take turns on its queue lock with no think time, so 15 pollers are
// parked on the port at any moment and nearly every lock attempt is a
// replayed step. One op is one acquisition; ns/attempt divides the run's
// wall time by the lock attempts it simulated.
func BenchmarkPortLockStorm(b *testing.B) {
	_, w := newTestWorld(b, 1, 16)
	nop := func(*Rank) {}
	b.ReportAllocs()
	b.ResetTimer()
	win := lockRounds(b, w, (b.N+15)/16, 10*sim.Microsecond, 0, nop, nop)[0]
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(win.LockAttempts), "ns/attempt")
	b.ReportMetric(float64(win.LockAttempts)/float64(b.N), "attempts/op")
}
