// Package openmp models an OpenMP runtime on the simulated cluster: thread
// teams pinned to one node's cores, worksharing loops with the standard
// schedule clauses (static, dynamic, guided) and — mirroring the
// LaPeSD-libGOMP extension the paper cites as future work — the research
// schedules TSS, FAC2 and RANDOM.
//
// The model reproduces the two properties the paper's comparison hinges on:
//
//  1. Worksharing loops end in an implicit barrier; per-loop idle time is
//     max(thread finish) − thread finish, which the executor accumulates.
//  2. dynamic/guided chunk grabs are hardware atomics on a shared cache
//     line, orders of magnitude cheaper than MPI passive-target locks; they
//     serialize on a per-team port so contention still emerges.
package openmp

import (
	"fmt"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// ScheduleKind selects the worksharing schedule.
type ScheduleKind int

// Schedule kinds: the three standard OpenMP clauses plus the extended
// research schedules of LaPeSD-libGOMP.
const (
	ScheduleStatic ScheduleKind = iota
	ScheduleDynamic
	ScheduleGuided
	ScheduleTSS
	ScheduleFAC2
	ScheduleRandom
)

func (k ScheduleKind) String() string {
	switch k {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	case ScheduleTSS:
		return "tss"
	case ScheduleFAC2:
		return "fac2"
	case ScheduleRandom:
		return "random"
	}
	return fmt.Sprintf("ScheduleKind(%d)", int(k))
}

// Extended reports whether the schedule requires the extended
// (libGOMP-style) runtime rather than a stock vendor runtime.
func (k ScheduleKind) Extended() bool {
	return k == ScheduleTSS || k == ScheduleFAC2 || k == ScheduleRandom
}

// MapTechnique translates a DLS technique to the OpenMP schedule clause per
// the paper's Table 1 (STATIC→static, SS→dynamic,1, GSS→guided,1). TSS and
// FAC2 map onto the extended runtime schedules; everything else is
// unsupported, matching the limitation the paper works around.
func MapTechnique(t dls.Technique) (ScheduleKind, error) {
	switch t {
	case dls.STATIC:
		return ScheduleStatic, nil
	case dls.SS:
		return ScheduleDynamic, nil
	case dls.GSS:
		return ScheduleGuided, nil
	case dls.TSS:
		return ScheduleTSS, nil
	case dls.FAC2:
		return ScheduleFAC2, nil
	case dls.RND:
		return ScheduleRandom, nil
	}
	return 0, fmt.Errorf("openmp: no schedule clause for technique %v", t)
}

// Team is a thread team pinned to one node. Every thread, the master
// included, is a continuation machine built once with the team; each
// ParallelFor re-arms the machines for its loop, so a worksharing loop
// allocates no per-thread state.
type Team struct {
	eng     *sim.Engine
	cl      *cluster.Config
	node    int
	threads int

	// atomicPort serializes dynamic/guided chunk grabs (one cache line).
	atomicPort sim.Server

	// The loop in flight.
	f       For
	st      loopState
	finish  []sim.Time
	chunks  int
	pending int  // threads that have not reached the barrier
	waiting bool // the master reached the barrier and waits for the rest
	done    func(ForResult)

	machines []*thread
	fork     func()
	join     func()
}

// thread is one team thread's continuation machine.
type thread struct {
	a, b  int
	start sim.Time
	// Static-schedule cursor: the next strip start under static,k, or
	// whether the contiguous block was handed out under plain static.
	next  int
	taken bool
	// Loop entry points: static runs one event per strip; the dynamic
	// family grabs each chunk through the team's atomic port.
	static  func()
	dynamic func()
}

// Runtime costs of a worksharing loop.
const (
	forkJoinCost = 1.5 * sim.Microsecond // fork + join overhead charged to the master per loop
	barrierCost  = 0.8 * sim.Microsecond // implicit-barrier signalling cost per thread
)

// NewTeam creates a team of the given size on node.
func NewTeam(eng *sim.Engine, cl *cluster.Config, node, threads int) (*Team, error) {
	if threads <= 0 || threads > cl.Cores(node) {
		return nil, fmt.Errorf("openmp: team of %d threads on %d-core node", threads, cl.Cores(node))
	}
	t := &Team{
		eng:      eng,
		cl:       cl,
		node:     node,
		threads:  threads,
		finish:   make([]sim.Time, threads),
		machines: make([]*thread, threads),
	}
	for tid := range t.machines {
		t.machines[tid] = t.newThread(tid)
	}
	t.fork = func() {
		now := eng.Now()
		t.pending, t.waiting, t.chunks = threads, false, 0
		for tid := 1; tid < threads; tid++ {
			eng.ScheduleAsOf(now, now, t.entry(tid))
		}
		t.entry(0)()
	}
	t.join = func() {
		if t.pending > 0 {
			t.waiting = true
			return
		}
		res := ForResult{ThreadFinish: t.finish, Chunks: t.chunks}
		for _, fin := range t.finish {
			if fin > res.MaxFinish {
				res.MaxFinish = fin
			}
		}
		for _, fin := range t.finish {
			res.BarrierWait += res.MaxFinish - fin
		}
		done := t.done
		t.done = nil
		done(res)
	}
	return t, nil
}

// For describes one worksharing loop over [0, N).
type For struct {
	N        int
	Schedule ScheduleKind
	// Chunk is the schedule clause's chunk argument: the fixed size for
	// dynamic, the minimum for guided. 0 means the OpenMP default (1).
	Chunk int
	// RangeCost returns the reference-core cost of iterations [a, b).
	RangeCost func(a, b int) sim.Time
	// Visit, if non-nil, observes each executed range with its thread id
	// and execution interval — the hook the tracer uses.
	Visit func(thread, a, b int, start, end sim.Time)
}

// ForResult reports one loop execution.
type ForResult struct {
	// ThreadFinish is each thread's barrier arrival time. It aliases the
	// team's storage and is valid until the next ParallelFor.
	ThreadFinish []sim.Time
	MaxFinish    sim.Time
	BarrierWait  sim.Time // Σ (MaxFinish − finish)
	Chunks       int
}

// loopState is the shared worksharing state of one loop instance.
type loopState struct {
	next  int // first unassigned iteration (dynamic family)
	step  int // scheduling step (extended schedules)
	sched dls.Schedule
}

// ParallelFor executes f on the team and calls done with the loop's result
// once every thread has passed the implicit barrier. The caller's rank is
// thread 0: it pays the fork cost, then threads 1..T−1 start at the fork
// instant and thread 0 runs inline; done fires where the master left the
// join. The call must be in tail position of the caller's event, and one
// loop runs at a time per team.
func (t *Team) ParallelFor(f For, done func(ForResult)) {
	if f.N < 0 {
		panic("openmp: negative loop size")
	}
	if f.RangeCost == nil {
		panic("openmp: For.RangeCost is required")
	}
	if t.done != nil {
		panic("openmp: ParallelFor while a loop is in flight")
	}
	t.f, t.done = f, done
	t.st = loopState{}
	switch f.Schedule {
	case ScheduleTSS:
		t.st.sched = dls.MustNew(dls.TSS, dls.Params{N: f.N, P: t.threads})
	case ScheduleFAC2:
		t.st.sched = dls.MustNew(dls.FAC2, dls.Params{N: f.N, P: t.threads})
	}
	for tid, th := range t.machines {
		th.next, th.taken = tid*f.Chunk, false
	}
	now := t.eng.Now()
	t.eng.AbsorbAsOf(now+forkJoinCost, now, t.fork)
}

// entry returns thread tid's start step for the loop in flight.
func (t *Team) entry(tid int) func() {
	if t.f.Schedule == ScheduleStatic {
		return t.machines[tid].static
	}
	return t.machines[tid].dynamic
}

// newThread builds thread tid's machine. Every step fires at the (time,
// scheduling-time) key of the matching wake-up of a blocking thread body —
// grab, execute, signal the barrier, wait for the join — so shared loop
// state, noise draws and visit order follow that body's event order
// exactly.
func (t *Team) newThread(tid int) *thread {
	eng := t.eng
	th := &thread{}
	// retire records the barrier arrival. The master then joins; a worker
	// that arrives while the master waits wakes it at the current instant.
	retire := func() {
		now := eng.Now()
		t.finish[tid] = now
		t.pending--
		if tid == 0 {
			t.join()
			return
		}
		if t.waiting {
			t.waiting = false
			eng.ScheduleAsOf(now, now, t.join)
		}
	}
	// barrier charges the implicit-barrier signalling cost.
	barrier := func() {
		now := eng.Now()
		eng.AbsorbAsOf(now+barrierCost, now, retire)
	}
	visit := func() {
		if t.f.Visit != nil {
			t.f.Visit(tid, th.a, th.b, th.start, eng.Now())
		}
	}
	// execute runs [th.a, th.b) from now and continues with next.
	execute := func(next func()) {
		t.chunks++
		th.start = eng.Now()
		d := t.cl.ExecTime(t.node, t.f.RangeCost(th.a, th.b), th.start, eng.Rand())
		eng.AbsorbAsOf(th.start+d, th.start, next)
	}

	// Static: the precomputed split needs no chunk-grab port.
	var staticExec func()
	th.static = func() {
		th.a, th.b = t.staticNext(th, tid)
		if th.a >= th.b {
			barrier()
			return
		}
		execute(staticExec)
	}
	staticExec = func() {
		visit()
		th.static()
	}

	// Dynamic family: serve the grab's atomic at the team port, apply the
	// shared-state update at its completion.
	var grabbed, dynamicExec func()
	th.dynamic = func() {
		now := eng.Now()
		doneAt := t.atomicPort.ServeAsync(now, t.cl.Mem.LocalAtomic)
		eng.AbsorbAsOf(now+(doneAt-now), now, grabbed)
	}
	grabbed = func() {
		th.a, th.b = t.take(tid)
		if th.a >= th.b {
			now := eng.Now()
			eng.AbsorbAsOf(now, now, barrier)
			return
		}
		execute(dynamicExec)
	}
	dynamicExec = func() {
		visit()
		th.dynamic()
	}
	return th
}

// staticNext returns thread tid's next static range; a >= b signals that
// the thread's share is exhausted. Plain static hands each thread one
// contiguous block; static,k hands out round-robin strips of k, one visit
// per strip to bound event counts.
func (t *Team) staticNext(th *thread, tid int) (int, int) {
	f := &t.f
	if k := f.Chunk; k > 0 {
		a := th.next
		if a >= f.N {
			return f.N, f.N
		}
		th.next = a + t.threads*k
		return a, minInt(a+k, f.N)
	}
	if th.taken {
		return f.N, f.N
	}
	th.taken = true
	return f.N * tid / t.threads, f.N * (tid + 1) / t.threads
}

// take is the post-service half of a dynamic-family chunk grab: it reads
// and updates the shared loop state at the atomic's completion instant.
func (t *Team) take(tid int) (int, int) {
	f, st := &t.f, &t.st
	T := t.threads
	if st.next >= f.N {
		return f.N, f.N
	}
	var c int
	switch f.Schedule {
	case ScheduleDynamic:
		c = f.Chunk
		if c <= 0 {
			c = 1
		}
	case ScheduleGuided:
		k := f.Chunk
		if k <= 0 {
			k = 1
		}
		rem := f.N - st.next
		c = (rem + T - 1) / T
		if c < k {
			c = k
		}
	case ScheduleTSS, ScheduleFAC2:
		c = st.sched.Chunk(st.step, tid)
		st.step++
	case ScheduleRandom:
		maxC := (f.N - st.next + T - 1) / T
		if maxC < 1 {
			maxC = 1
		}
		c = 1 + t.eng.Rand().Intn(maxC)
	default:
		panic(fmt.Sprintf("openmp: unknown schedule %v", f.Schedule))
	}
	a := st.next
	st.next = minInt(a+c, f.N)
	return a, st.next
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
