package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestRankOfIndexed checks the O(1) RankOf on both communicator shapes —
// the world and the node communicators — including non-members.
func TestRankOfIndexed(t *testing.T) {
	cl := cluster.MiniHPC(4)
	eng := sim.NewEngine(1)
	w, err := NewWorld(eng, &cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Launch(func(r *Rank) {
		defer r.Retire()
		if got := w.Comm().RankOf(r); got != r.Rank() {
			t.Errorf("world RankOf(%d) = %d", r.Rank(), got)
		}
		nc := w.SplitTypeShared(r)
		me := nc.RankOf(r)
		if want := r.Rank() - w.nodeOff[r.Node()]; me != want {
			t.Errorf("node RankOf(rank %d) = %d, want %d", r.Rank(), me, want)
		}
		if nc.base+me != r.Rank() {
			t.Errorf("node comm index broken: RankOf→world rank = %d for rank %d", nc.base+me, r.Rank())
		}
		// A rank is never a member of another node's communicator.
		other := w.Rank((r.Rank() + 4) % w.Size())
		if got := nc.RankOf(other); got != -1 {
			t.Errorf("RankOf(non-member) = %d, want -1", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorldResetMatchesFresh verifies World.Reset's pooling contract: a
// world reset onto a reset engine reproduces a fresh world's run bit for
// bit, including RMA lock accounting, across a shape change. Every rank
// allocates the global and its node's shared window, passes a barrier,
// adds its rank to the global counter under the node lock, and rank 0
// reads the total after a second barrier.
func TestWorldResetMatchesFresh(t *testing.T) {
	run := func(eng *sim.Engine, w *World) (int64, int64, sim.Time) {
		var sum, attempts int64
		nodeWins := make([]*Win, w.Cluster().Nodes)
		err := w.Launch(func(r *Rank) {
			w.Comm().WinAllocateCont(r, "w", 2, func(gw *Win) {
				w.SplitTypeShared(r).WinAllocateSharedCont(r, "q", 1, func(lw *Win) {
					nodeWins[r.Node()] = lw
					fop := gw.NewFetchAndOpCont(r)
					unlock := lw.NewUnlockCont(r, 0, func(sim.Time) {
						w.Comm().BarrierCont(r, func() {
							if r.Rank() == 0 {
								fop(0, 0, 0, func(v int64) { sum = v; r.Retire() })
								return
							}
							r.Retire()
						})
					})
					lock := lw.NewLockCont(r, 0, func() {
						fop(0, 0, int64(r.Rank()), func(int64) {
							now := eng.Now()
							unlock(now, now)
						})
					})
					w.Comm().BarrierCont(r, lock)
				})
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, lw := range nodeWins {
			attempts += lw.LockAttempts
		}
		return sum, attempts, eng.Now()
	}

	cl := cluster.MiniHPC(2)
	engF := sim.NewEngine(5)
	wF, err := NewWorld(engF, &cl, 8)
	if err != nil {
		t.Fatal(err)
	}
	sumF, attF, endF := run(engF, wF)
	if sumF != 120 { // 0+1+…+15
		t.Fatalf("fresh world counted %d, want 120", sumF)
	}

	// Pooled path: dirty the arena with a different shape first.
	eng := sim.NewEngine(99)
	clBig := cluster.MiniHPCHetero(3, 1.0, 0.5)
	w, err := NewWorld(eng, &clBig, 4)
	if err != nil {
		t.Fatal(err)
	}
	run(eng, w)
	eng.Reset(5)
	if err := w.Reset(eng, &cl, 8); err != nil {
		t.Fatal(err)
	}
	sumP, attP, endP := run(eng, w)

	if sumF != sumP || attF != attP || endF != endP {
		t.Fatalf("reset world diverged: fresh (sum %v, attempts %d, end %v) vs pooled (%v, %d, %v)",
			sumF, attF, endF, sumP, attP, endP)
	}
}

// TestWorldResetRejectsBadShape mirrors NewWorld's validation.
func TestWorldResetRejectsBadShape(t *testing.T) {
	cl := cluster.MiniHPC(2)
	eng := sim.NewEngine(1)
	w, err := NewWorld(eng, &cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Launch(func(r *Rank) { r.Retire() }); err != nil {
		t.Fatal(err)
	}
	eng.Reset(1)
	if err := w.Reset(eng, &cl, 999); err == nil {
		t.Fatal("Reset accepted ranksPerNode beyond the core count")
	}
}

// BenchmarkCommRankOf measures the O(1) rank lookup the executors lean on
// (it was a linear scan before the precomputed index).
func BenchmarkCommRankOf(b *testing.B) {
	cl := cluster.MiniHPC(16)
	eng := sim.NewEngine(1)
	w, err := NewWorld(eng, &cl, 16)
	if err != nil {
		b.Fatal(err)
	}
	var comms []*Comm
	err = w.Launch(func(r *Rank) {
		comms = append(comms, w.SplitTypeShared(r))
		r.Retire()
	})
	if err != nil {
		b.Fatal(err)
	}
	last := w.Rank(w.Size() - 1) // worst case for the old linear scan
	nc := comms[len(comms)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.Comm().RankOf(last) < 0 || nc.RankOf(last) < 0 {
			b.Fatal("rank not found")
		}
	}
}
