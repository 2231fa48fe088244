package core

import (
	"repro/dls"
	"repro/internal/mpi"
	"repro/internal/openmp"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mapIntraToOpenMP(t dls.Technique) (openmp.ScheduleKind, error) {
	return openmp.MapTechnique(t)
}

// runMPIOpenMP executes the hierarchical MPI+OpenMP baseline: one MPI rank
// per node fetches chunks via distributed chunk calculation and executes
// each with an OpenMP worksharing loop (implicit barrier after every
// chunk — the overhead the proposed approach removes).
func (h *harness) runMPIOpenMP() error {
	c := h.cfg
	world, err := h.newWorld(&c.Cluster, 1)
	if err != nil {
		return err
	}
	kind, err := mapIntraToOpenMP(c.Intra)
	if err != nil {
		return err
	}
	teams := make([]*openmp.Team, c.Cluster.Nodes)
	for node := range teams {
		if teams[node], err = openmp.NewTeam(h.eng, &c.Cluster, node, h.wPerNode[node]); err != nil {
			return err
		}
	}
	inter := h.interSchedule(h.interP())
	return world.Launch(func(r *mpi.Rank) {
		world.Comm().WinAllocateCont(r, "global-queue", 2, func(gw *mpi.Win) {
			world.Comm().BarrierCont(r, func() {
				h.mpiOpenMPRank(r, gw, teams[r.Node()], kind, inter)
			})
		})
	})
}

// mpiOpenMPRank is one node's rank: fetch a global chunk, run it as a
// worksharing loop on the node's team, and fetch again once the loop's
// implicit barrier releases the master. The rank retires when the global
// queue is exhausted.
func (h *harness) mpiOpenMPRank(r *mpi.Rank, gw *mpi.Win, team *openmp.Team, kind openmp.ScheduleKind, inter interSched) {
	node := r.Node()
	master := h.wOff[node]
	n := h.prof.N()
	var (
		schedT0 sim.Time
		start   int
		fetch   func()
	)
	loop := openmp.For{
		Schedule: kind,
		Chunk:    h.cfg.IntraChunk,
		RangeCost: func(a, b int) sim.Time {
			return h.prof.Range(start+a, start+b)
		},
		Visit: func(tid, a, b int, t0, t1 sim.Time) {
			h.execute(master+tid, node, start+a, start+b, t0, t1)
			h.localChunks++
		},
	}
	joined := func(res openmp.ForResult) {
		h.barrierWait += res.BarrierWait
		if h.tr != nil {
			// Record each thread's barrier idle interval.
			for tid, fin := range res.ThreadFinish {
				if res.MaxFinish > fin {
					h.tr.Add(trace.Event{
						Worker: master + tid, Node: node,
						Kind: trace.KindBarrier, Start: fin, End: res.MaxFinish,
					})
				}
			}
		}
		schedT0 = h.eng.Now()
		fetch()
	}
	fetch = h.newGlobalFetch(r, gw, inter, func(s, end int) {
		h.traceSched(master, node, trace.KindSchedGlobal, schedT0, h.eng.Now())
		if s >= n {
			r.Retire()
			return
		}
		h.globalChunks++
		start = s
		loop.N = end - s
		team.ParallelFor(loop, joined)
	})
	schedT0 = h.eng.Now()
	fetch()
}

// threadMPIPenalty is the extra per-call cost of MPI_THREAD_MULTIPLE
// (runtime-internal locking) paid by threads issuing MPI calls.
const threadMPIPenalty = 0.6 * sim.Microsecond

// runMPIOpenMPNoWait implements the paper's future-work variant: OpenMP
// threads never meet a barrier; whichever thread drains the chunk fetches
// the next one via MPI while the others keep executing or briefly poll.
// The implementation mirrors the "many synchronization statements" the
// paper warns about: a per-node refill flag plus polling on the shared
// chunk descriptor.
func (h *harness) runMPIOpenMPNoWait() error {
	c := h.cfg
	world, err := h.newWorld(&c.Cluster, 1)
	if err != nil {
		return err
	}
	if _, err := mapIntraToOpenMP(c.Intra); err != nil {
		return err
	}
	inter := h.interSchedule(h.interP())
	return world.Launch(func(r *mpi.Rank) {
		world.Comm().WinAllocateCont(r, "global-queue", 2, func(gw *mpi.Win) {
			world.Comm().BarrierCont(r, func() {
				h.nowaitRank(r, gw, inter)
			})
		})
	})
}

// nowaitRank runs one node of the nowait variant. Each thread loops: take
// a sub-chunk from the node's current chunk under an atomic; if the chunk
// is drained, either refill it through MPI (the first thread to notice) or
// poll for a microsecond. Threads 1..T−1 start at the current instant and
// thread 0, the rank itself, runs inline; the rank retires when its last
// thread sees the global queue exhausted.
func (h *harness) nowaitRank(r *mpi.Rank, gw *mpi.Win, inter interSched) {
	c := h.cfg
	node := r.Node()
	eng := h.eng
	n := h.prof.N()
	T := h.wPerNode[node]
	var (
		// The node's current chunk, shared by its threads in host memory;
		// the simulated costs (atomics, MPI calls, polling) are charged
		// explicitly.
		cur, end, step, orig int
		exhausted            bool
		refilling            bool
		atomicPort           sim.Server
		running              = T
	)

	// The refill runs on behalf of one thread at a time (refilling guards
	// it); refWorker is that thread's worker index and refNext its next
	// grab.
	var (
		refWorker int
		refNext   func()
		schedT0   sim.Time
	)
	refill := h.newGlobalFetch(r, gw, inter, func(start, e int) {
		h.traceSched(refWorker, node, trace.KindSchedGlobal, schedT0, eng.Now())
		if start >= n {
			exhausted = true
		} else {
			h.globalChunks++
			orig = e - start
			step = 0
			cur, end = start, e
		}
		refilling = false
		refNext()
	})

	grabs := make([]func(), T)
	for tid := range grabs {
		tid := tid
		worker := h.wOff[node] + tid
		var (
			a, size int
			t0      sim.Time
			grab    func()
		)
		executed := func() {
			h.execute(worker, node, a, a+size, t0, eng.Now())
			grab()
		}
		served := func() {
			now := eng.Now()
			if cur < end {
				size = h.intraChunkSize(node, orig, step, tid)
				if size > end-cur {
					size = end - cur
				}
				a = cur
				cur += size
				step++
				h.localChunks++
				t0 = now
				d := c.Cluster.ExecTime(node, h.prof.Range(a, a+size), t0, eng.Rand())
				eng.AbsorbAsOf(t0+d, t0, executed)
				return
			}
			if exhausted {
				if running--; running == 0 {
					r.Retire()
				}
				return
			}
			if !refilling {
				// Chunk drained: this thread refills via MPI.
				refilling = true
				refWorker, refNext = worker, grab
				schedT0 = now
				eng.AbsorbAsOf(now+threadMPIPenalty, now, refill)
				return
			}
			// Another thread is refilling: poll briefly.
			eng.AbsorbAsOf(now+sim.Microsecond, now, grab)
		}
		grab = func() {
			now := eng.Now()
			done := atomicPort.ServeAsync(now, c.Cluster.Mem.LocalAtomic)
			eng.AbsorbAsOf(now+(done-now), now, served)
		}
		grabs[tid] = grab
	}
	now := eng.Now()
	for tid := 1; tid < T; tid++ {
		eng.ScheduleAsOf(now, now, grabs[tid])
	}
	grabs[0]()
}
