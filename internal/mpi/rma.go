package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Win is an RMA window: each rank of the creating communicator exposes a
// segment of int64 words. Operations name a target comm rank and an offset
// within the target's segment.
//
// Passive-target synchronization follows the lock-polling protocol the paper
// discusses (citing Zhao et al.): an exclusive lock is acquire-by-retry,
// every attempt is an RMA round serviced serially by the target node's
// window port, and failed attempts back off for the cluster's PollInterval.
// Under contention the attempt storm both delays the holder's own
// operations and stretches grant hand-off — the mechanism behind the
// paper's SS results.
type Win struct {
	world  *World
	comm   *Comm
	name   string
	shared bool
	// mem is the single backing array behind every rank's segment; data[i]
	// is the i-th rank's count-word subslice of it. One allocation per
	// window, and World.Reset can recycle the arrays across pooled cells.
	mem   []int64
	data  [][]int64
	locks []lockState

	// Accounting for overhead analysis.
	LockAttempts     int64
	LockAcquisitions int64
	AtomicOps        int64
}

// lockState is one target's exclusive lock word plus its replay bookkeeping.
type lockState struct {
	excl bool

	// relsInFlight counts releases that have been issued but not yet applied
	// to the lock word. While it is zero and the lock is held, the lock can
	// only become *less* available before any instant a fresh attempt's first
	// check could land — every release must first arrive at the port and its
	// service queues behind that in-flight attempt — so the check provably
	// fails and the analytic fast-forward parks the attempt at issue without
	// an engine event (see NewLockCont).
	relsInFlight int
}

// rmaPort is one node's window port: the serial RMA service station plus the
// virtual lock-pollers that coalesce the lock-polling protocol's retry
// storm.
//
// In the literal protocol a contended MPI_Win_lock retries every
// PollInterval, and every retry is a full RMA round through this port — an
// O(hold-time/PollInterval) stream of simulated events per waiter that
// dominates host time in the SS experiments. The coalesced implementation
// keeps the *arithmetic* of every retry (each one still consumes port
// service time, delays other requests, and bumps the attempt counters —
// that feedback is the paper's SS pathology) but performs it lazily: the
// waiting rank parks, and its pending retries are replayed in virtual-
// timestamp order whenever something observes the port (a real RMA arrival)
// or the lock state (an unlock, or the wake chain below). Timing, attempt
// counts and acquisition order are identical to the literal protocol; only
// the host-event count changes. DESIGN.md §3 gives the equivalence
// argument.
//
// A port serves exactly one lock: every lock issuer contends for its own
// node's local queue lock, so the first NewLockCont built on the port binds
// it to that (window, target) and a second, distinct lock panics.
type rmaPort struct {
	srv sim.Server
	// win/target is the bound lock (win is nil until the first NewLockCont).
	win    *Win
	target int
	// backoff holds the parked attempts' pending arrivals at the port,
	// service their pending checks. Each ring is sorted by (at, born, reg):
	// the engine's (time, scheduling-time) event order, with registration
	// order as the deterministic tie-break — exactly the order the literal
	// selection scan preferred — so the earliest pending step is the lesser
	// of the two heads. Check times are completions of one FIFO server and
	// back-offs follow checks, so a step almost always lands at its ring's
	// tail; an out-of-order one costs a longer insertion scan, never a
	// different order.
	backoff, service pollRing
	// reg is the monotone registration counter behind the tie-break.
	reg uint64
	// (wakeAt, wakeBorn) is the armed wake-chain mark: while the lock is free
	// and a poller is parked, an engine event is scheduled at the earliest
	// pending poll decision, in that decision's own event position.
	wakeAt   sim.Time
	wakeBorn sim.Time
	wakeSet  bool
	// checksInFlight counts literal first-check events scheduled on this
	// port's lock but not yet fired. The analytic fast-forward only parks an
	// attempt at issue while it is zero: a pending literal check could
	// register its poller between this issue and its own (later) check
	// instant, and registration order — the tie-break of equal poll
	// positions — must stay the literal check order.
	checksInFlight int
}

// reset clears a pooled port for reuse, keeping the rings' capacity.
func (pt *rmaPort) reset() {
	pt.backoff.reset()
	pt.service.reset()
	*pt = rmaPort{backoff: pt.backoff, service: pt.service}
}

// bind ties the port to the lock (w, target) that NewLockCont is building an
// issuer for.
func (pt *rmaPort) bind(w *Win, target, node int) {
	if pt.win == nil {
		pt.win, pt.target = w, target
		return
	}
	if pt.win != w || pt.target != target {
		panic(fmt.Sprintf("mpi: NewLockCont on %s[%d]: node %d's port already serves lock %s[%d], and a port serves one lock",
			w.name, target, node, pt.win.name, pt.target))
	}
}

// pending reports whether any poll step is registered.
func (pt *rmaPort) pending() bool { return pt.backoff.n+pt.service.n > 0 }

// park registers a contended lock attempt whose next step is the arrival
// at `at` of a retry scheduled at born; cont runs at the grant.
func (pt *rmaPort) park(at, born sim.Time, cont func()) {
	pt.reg++
	pt.backoff.insert(pollStep{at: at, born: born, reg: pt.reg, cont: cont})
}

// root returns the ring holding the earliest pending step, or nil.
func (pt *rmaPort) root() *pollRing {
	switch {
	case pt.service.n == 0:
		if pt.backoff.n == 0 {
			return nil
		}
		return &pt.backoff
	case pt.backoff.n == 0 || pt.service.first().before(pt.backoff.first()):
		return &pt.service
	}
	return &pt.backoff
}

// pollStep is the pending step of one parked lock attempt whose retries are
// simulated arithmetically. The attempt alternates between two phases,
// tracked by the ring its step sits in: the next attempt *arriving* at the
// port (backoff, at = arrival time) and the in-flight attempt *completing
// and checking* the lock word (service, at = check time). Lock issuers are
// node-local (NewLockCont), so every phase is a local port round.
type pollStep struct {
	at sim.Time
	// born is the virtual time the step pending at `at` would have been
	// scheduled in the literal protocol (the previous check for an arrival,
	// the arrival for a check). Events of equal firing time fire in
	// scheduling order, so born decides ties between a replayed step and a
	// real same-instant arrival.
	born sim.Time
	reg  uint64 // registration tie-break, assigned by park
	// cont runs at the grant position, in an event with exactly the
	// (time, scheduling-time) key the literal winner's resume would have
	// had.
	cont func()
}

// before is the (at, born, reg) order of pending poll steps.
func (a *pollStep) before(b *pollStep) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.born != b.born {
		return a.born < b.born
	}
	return a.reg < b.reg
}

// pollRing is a circular buffer of poll steps kept sorted by before.
type pollRing struct {
	buf  []pollStep // power-of-two length
	head int
	n    int
}

// reset empties the ring, keeping its buffer.
func (r *pollRing) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// first returns the earliest step; the ring must not be empty.
func (r *pollRing) first() *pollStep { return &r.buf[r.head] }

// pop removes the earliest step.
func (r *pollRing) pop() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// insert adds st in order, scanning back from the tail.
func (r *pollRing) insert(st pollStep) {
	if r.n == len(r.buf) {
		buf := make([]pollStep, max(16, 2*len(r.buf)))
		for k := 0; k < r.n; k++ {
			buf[k] = r.buf[(r.head+k)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	mask := len(r.buf) - 1
	i := (r.head + r.n) & mask
	for k := r.n; k > 0; k-- {
		j := (i - 1) & mask
		if !st.before(&r.buf[j]) {
			break
		}
		r.buf[i] = r.buf[j]
		i = j
	}
	r.buf[i] = st
	r.n++
}

// advancePort replays pending virtual poll steps on node's port in
// (timestamp, scheduling-time) order — the engine's own event order. Steps
// strictly before t always replay; steps exactly at t replay only if their
// would-be event was scheduled before bornLimit (or at it, when incl is
// set), because events of equal firing time fire in scheduling order.
// Callers replaying on behalf of a real port arrival or a lock release pass
// that event's EventScheduledAt exclusively; wake events pass their own
// position inclusively. The call must precede any real arrival at the port
// (so the serial service order matches the literal protocol) and any
// lock-state change (so every check resolves against the state that held
// at its own virtual time). Grants resolve exactly at their check time and
// position: the wake chain guarantees an engine event fires there, so
// eng.Now() equals the check time.
func (w *World) advancePort(node int, t, bornLimit sim.Time, incl bool) (advanced bool) {
	pt := w.memPort[node]
	mem := &w.cfg.Mem
	for {
		ring := pt.root()
		if ring == nil {
			return
		}
		best := *ring.first()
		if best.at > t || (best.at == t && (best.born > bornLimit || (best.born == bornLimit && !incl))) {
			return
		}
		ring.pop()
		advanced = true
		if ring == &pt.backoff {
			// The retry reaches the port: consume serial service exactly as
			// the literal port round would, then wait for the check moment.
			done := pt.srv.ServeAsync(best.at, mem.LockAttempt)
			pt.win.LockAttempts++
			// Mirror the literal Serve bit-for-bit: the waiting rank would
			// have slept (done − now) from now, so its check is at
			// at + (done − at), which floating point does not guarantee to
			// equal done; the check event is scheduled at the arrival.
			best.born, best.at = best.at, best.at+(done-best.at)
			pt.service.insert(best)
			continue
		}
		// The attempt completes: check the lock word at its own timestamp.
		ls := &pt.win.locks[pt.target]
		if !ls.excl {
			ls.excl = true
			pt.win.LockAcquisitions++
			// Resume the winner at its check time, in the position the
			// literal check event (scheduled at the attempt's arrival)
			// would have fired, so everything it schedules next gets the
			// same relative order as in the literal protocol.
			//
			// Analytic fast-forward: when the grant resolves at exactly the
			// position of the wake event this replay runs in (incl callers
			// pass their own position), the literal grant event would fire
			// immediately after the wake completes — nothing can interpose
			// at the same (time, born) key, since no second wake can cover
			// the same position (reconcilePort never re-arms an identical
			// one). Hold the continuation instead; the wake runs it after
			// reconciliation, where eng.Now() and EventScheduledAt() already
			// equal the grant position. The port serves one exclusive lock,
			// so a replay grants at most once and the slot is free here.
			if incl && best.at == t && best.born == bornLimit && fastFwd.Load() {
				w.inlineGrant = best.cont
			} else {
				w.eng.ScheduleAsOf(best.at, best.born, best.cont)
			}
			continue
		}
		// Failed: back off PollInterval and retry; the next arrival is the
		// back-off sleep's wake-up, scheduled at the check.
		best.born = best.at
		best.at += mem.PollInterval
		pt.backoff.insert(best)
	}
}

// reconcilePort re-establishes the wake-chain invariant after the port or
// its lock changed: while the lock is free and a poller is parked, an engine
// event is scheduled at the earliest pending poll decision, in that
// decision's own event position. Only a mark earlier than the armed one
// needs a new event — the literal protocol's superseded wake-ups carry no
// observable state of their own: a stale wake only advances the port to its
// position, and every replayed poll step is position-exact arithmetic that
// yields the same timestamps and counters whichever trigger drives it.
// Stale wake events (the state changed again first) fire harmlessly: they
// just advance and reconcile again.
func (w *World) reconcilePort(node int) {
	pt := w.memPort[node]
	ring := pt.root()
	if ring == nil || pt.win.locks[pt.target].excl {
		return
	}
	st := ring.first()
	if pt.wakeSet && (pt.wakeAt < st.at || (pt.wakeAt == st.at && pt.wakeBorn <= st.born)) {
		return
	}
	pt.wakeAt, pt.wakeBorn, pt.wakeSet = st.at, st.born, true
	w.scheduleWake(node, st.at, st.born)
}

// wakeRec is one pooled wake-chain link; fire is the closure bound to it
// once, so re-arming the chain allocates nothing in steady state.
type wakeRec struct {
	w    *World
	node int
	at   sim.Time
	born sim.Time
	fire func()
	next *wakeRec
}

// scheduleWake arms one link of the wake chain: an event at the exact
// (time, scheduling-time) position of the poll decision it covers, firing
// after every same-instant event that preceded the literal decision and
// before every one that followed it.
func (w *World) scheduleWake(node int, at, born sim.Time) {
	wr := w.wakeFree
	if wr == nil {
		wr = &wakeRec{w: w}
		wr.fire = func() {
			w := wr.w
			node, born := wr.node, wr.born
			pt := w.memPort[node]
			cleared := pt.wakeSet && pt.wakeAt == wr.at && pt.wakeBorn == born
			if cleared {
				pt.wakeSet = false
			}
			wr.next = w.wakeFree
			w.wakeFree = wr
			advanced := w.advancePort(node, w.eng.Now(), born, true)
			if cleared || advanced {
				w.reconcilePort(node)
				// A grant the replay resolved at this event's own position
				// runs here — after reconciliation, exactly where its literal
				// same-key grant event fired, in tail position.
				if g := w.inlineGrant; g != nil {
					w.inlineGrant = nil
					g()
				}
				return
			}
			// A stale link that replayed nothing cannot have created a new
			// earliest decision: poll positions only ever move later, every
			// eligibility-increasing mutation (a release) reconciles itself,
			// and the covering mark is still armed. Reconciling would arm
			// nothing, so skip it.
		}
	} else {
		w.wakeFree = wr.next
	}
	wr.node, wr.at, wr.born = node, at, born
	w.eng.ScheduleAsOf(at, born, wr.fire)
}

// newWin builds the window object shared by a collective allocation. The
// per-rank segments subslice one backing array (and reuse a pooled window's
// backing memory when the world has one of the right shape), so window
// creation costs O(1) allocations rather than O(ranks).
func (c *Comm) newWin(name string, count int, shared bool) *Win {
	size := c.Size()
	w := c.world.pooledWin(size, count)
	if w == nil {
		w = &Win{mem: make([]int64, size*count), data: make([][]int64, size), locks: make([]lockState, size)}
	}
	w.world, w.comm, w.name, w.shared = c.world, c, name, shared
	for i := range w.data {
		w.data[i] = w.mem[i*count : (i+1)*count : (i+1)*count]
	}
	c.world.wins = append(c.world.wins, w)
	return w
}

// pooledWin returns a retired window whose backing arrays fit size ranks of
// count words each (see World.Reset), zeroed and ready for reuse, or nil.
func (w *World) pooledWin(size, count int) *Win {
	for i, pw := range w.winFree {
		if len(pw.data) == size && cap(pw.mem) >= size*count {
			w.winFree[i] = w.winFree[len(w.winFree)-1]
			w.winFree = w.winFree[:len(w.winFree)-1]
			pw.mem = pw.mem[:size*count]
			for j := range pw.mem {
				pw.mem[j] = 0
			}
			pw.locks = pw.locks[:size]
			for j := range pw.locks {
				pw.locks[j] = lockState{}
			}
			pw.LockAttempts, pw.LockAcquisitions, pw.AtomicOps = 0, 0, 0
			return pw
		}
	}
	return nil
}

// allocateWinCont is the collective window allocation: cont receives the
// window at the event position where a blocking caller resumed from the
// creation barrier.
func (c *Comm) allocateWinCont(r *Rank, name string, count int, shared bool, cont func(*Win)) {
	if shared && c.spansNodes() != 1 {
		panic(fmt.Sprintf("mpi: WinAllocateSharedCont on communicator %q spanning %d nodes", c.name, c.spansNodes()))
	}
	st := c.enter(r, "winalloc")
	if st.win == nil {
		st.win = c.newWin(name, count, shared)
	}
	win := st.win
	c.arriveCont(st, c.latencyCost(2), func() {
		c.leave(r, st)
		cont(win)
	})
}

// WinAllocateCont is MPI_Win_allocate: it collectively creates a window
// with count int64 words per rank of c, and cont runs holding the new
// window at the literal post-creation-barrier event position.
func (c *Comm) WinAllocateCont(r *Rank, name string, count int, cont func(*Win)) {
	c.allocateWinCont(r, name, count, false, cont)
}

// WinAllocateSharedCont collectively creates an MPI-3 shared-memory window
// (MPI_Win_allocate_shared); the communicator must live on a single node
// (use SplitTypeShared).
func (c *Comm) WinAllocateSharedCont(r *Rank, name string, count int, cont func(*Win)) {
	c.allocateWinCont(r, name, count, true, cont)
}

// Name returns the window's debug name.
func (w *Win) Name() string { return w.name }

// Comm returns the communicator the window was created on.
func (w *Win) Comm() *Comm { return w.comm }

// targetNode returns the node hosting the target comm rank's segment.
func (w *Win) targetNode(target int) int {
	return w.world.ranks[w.comm.base+target].node
}

// NewLockCont returns a reusable continuation-style MPI_Win_lock issuer
// (exclusive mode) for a node-local window. Calling the issuer performs the
// literal first attempt's arrival (poll replay plus port service
// reservation) at the current instant and arranges for cont to run, holding
// the lock, in an event at the position of the literal check — where a
// blocking caller would have resumed. Under contention the retry loop runs
// through the coalesced poller machinery and cont fires at the exact grant
// position. The caller must yield after each issue; the issuer and its
// closures are allocated once, so steady-state issues are allocation-free.
// The first issuer built on a node binds its port to (w, target); building
// one for a different lock on the same node panics.
func (w *Win) NewLockCont(r *Rank, target int, cont func()) func() {
	wld := w.world
	tn := w.targetNode(target)
	if tn != r.node {
		panic(fmt.Sprintf("mpi: NewLockCont on %s[%d] from another node", w.name, target))
	}
	mem := &wld.cfg.Mem
	pt := wld.memPort[tn]
	pt.bind(w, target, tn)
	eng := wld.eng
	check := func() {
		pt.checksInFlight--
		ls := &w.locks[target]
		if !ls.excl {
			ls.excl = true
			w.LockAcquisitions++
			cont()
			return
		}
		// Contended: park on the coalesced poller machinery, exactly as the
		// literal loop registered itself after its first failed check.
		born := eng.Now()
		pt.park(born+mem.PollInterval, born, cont)
	}
	return func() {
		// Literal first attempt: one RMA round through the port.
		w.LockAttempts++
		if pt.pending() {
			wld.advancePort(tn, eng.Now(), eng.EventScheduledAt(), false)
		}
		now := eng.Now()
		done := pt.srv.ServeAsync(now, mem.LockAttempt)
		chk := now + (done - now) // Serve's wake arithmetic, bit for bit
		if fastFwd.Load() {
			// Analytic fast-forward: the check at chk provably fails when the
			// lock is held and no release is in flight — any future release
			// must arrive at this port and its service queues behind the
			// attempt just reserved, so the lock word cannot improve before
			// chk. Park directly in the state the literal failed check would
			// have left (born = check time, next arrival one back-off later)
			// and skip the check event entirely.
			ls := &w.locks[target]
			if ls.relsInFlight == 0 && pt.checksInFlight == 0 && ls.excl {
				pt.park(chk+mem.PollInterval, chk, cont)
				return
			}
		}
		pt.checksInFlight++
		eng.AbsorbAsOf(chk, now, check)
	}
}

// NewUnlockCont returns a reusable continuation-style unlock issuer:
// issue(arrival, born) runs the unlock's arrival half (poll replay, port
// service) in an event at the literal pre-arrival wake position, the
// release half at the literal service completion, and cont(release) inline
// right after the release — exactly where a blocking MPI_Win_unlock caller
// resumed — so everything cont schedules gets the same relative order. At
// most one unlock may be in flight per issuer (a second issue before the
// release panics); the caller yields meanwhile. Releasing a lock that is not
// held panics.
func (w *Win) NewUnlockCont(r *Rank, target int, cont func(release sim.Time)) func(arrival, born sim.Time) {
	wld := w.world
	tn := w.targetNode(target)
	if tn != r.node {
		panic(fmt.Sprintf("mpi: NewUnlockCont on %s[%d] from another node", w.name, target))
	}
	pt := wld.memPort[tn]
	eng := wld.eng
	// op is the in-flight unlock; one struct keeps the closures' shared
	// state to one allocation.
	var op struct {
		arrival, release sim.Time
		inFlight         bool
	}
	releaseFn := func() {
		if pt.pending() {
			wld.advancePort(tn, op.release, eng.EventScheduledAt(), false)
		}
		ls := &w.locks[target]
		if !ls.excl {
			panic(fmt.Sprintf("mpi: unlock of unheld lock on %s[%d]", w.name, target))
		}
		ls.excl = false
		ls.relsInFlight--
		wld.reconcilePort(tn)
		op.inFlight = false
		cont(op.release)
	}
	arriveFn := func() {
		if pt.pending() {
			wld.advancePort(tn, op.arrival, eng.EventScheduledAt(), false)
		}
		done := pt.srv.ServeAsync(op.arrival, wld.cfg.Mem.SharedWinOp)
		op.release = op.arrival + (done - op.arrival)
		eng.AbsorbAsOf(op.release, op.arrival, releaseFn)
	}
	return func(arrival, born sim.Time) {
		if op.inFlight {
			panic(fmt.Sprintf("mpi: rank %d issued a second unlock of %s[%d] while one is in flight", r.rank, w.name, target))
		}
		op.inFlight, op.arrival = true, arrival
		w.locks[target].relsInFlight++
		eng.AbsorbAsOf(arrival, born, arriveFn)
	}
}

// NewFetchAndOpCont returns a reusable event-driven MPI_Fetch_and_op issuer
// (MPI_SUM; delta 0 is an atomic read) on w for rank r:
// issue(target, offset, delta, cont) performs the literal RMA round — wire
// latency both ways when the target is remote, poll replay and serial
// service at the target port either way — entirely in engine events at the
// exact (time, scheduling-time) positions a blocking caller's sleeps
// occupied, then applies the read-modify-write and runs cont(old) inline at
// the completion event, where that caller resumed. At most one operation
// may be in flight per issuer (a second issue before the completion
// panics); the issuer and its closures are allocated once, so steady-state
// issues allocate nothing. The caller must already be executing inside an
// engine event, so the pre-service poll replay sees the same
// EventScheduledAt as the literal call site.
func (w *Win) NewFetchAndOpCont(r *Rank) func(target, offset int, delta int64, cont func(old int64)) {
	wld := w.world
	eng := wld.eng
	net := &wld.cfg.Net
	// op is the in-flight operation; one struct keeps the closures' shared
	// state to one allocation.
	var op struct {
		target, offset int
		delta          int64
		cont           func(int64)
		inFlight       bool
	}
	finish := func() {
		old := w.data[op.target][op.offset]
		w.data[op.target][op.offset] = old + op.delta
		op.inFlight = false
		op.cont(old)
	}
	servedRemote := func() {
		now := eng.Now()
		eng.AbsorbAsOf(now+net.Latency, now, finish)
	}
	arriveRemote := func() {
		tn := w.targetNode(op.target)
		pt := wld.memPort[tn]
		if pt.pending() {
			wld.advancePort(tn, eng.Now(), eng.EventScheduledAt(), false)
		}
		now := eng.Now()
		done := pt.srv.ServeAsync(now, wld.cfg.Mem.SharedWinOp+net.PortService)
		eng.AbsorbAsOf(now+(done-now), now, servedRemote)
	}
	return func(target, offset int, delta int64, cont func(int64)) {
		if op.inFlight {
			panic(fmt.Sprintf("mpi: rank %d issued a second Fetch_and_op on %s while one is in flight", r.rank, w.name))
		}
		op.target, op.offset, op.delta, op.cont, op.inFlight = target, offset, delta, cont, true
		w.AtomicOps++
		tn := w.targetNode(target)
		now := eng.Now()
		if tn != r.node {
			eng.AbsorbAsOf(now+net.Latency, now, arriveRemote)
			return
		}
		pt := wld.memPort[tn]
		if pt.pending() {
			wld.advancePort(tn, now, eng.EventScheduledAt(), false)
		}
		done := pt.srv.ServeAsync(now, wld.cfg.Mem.SharedWinOp)
		eng.AbsorbAsOf(now+(done-now), now, finish)
	}
}

// Shared returns the target segment of a shared window for direct
// load/store access (MPI_Win_shared_query). Only legal on shared windows
// for ranks on the hosting node; locality is validated once, so hot
// executor loops index the slice directly. The visibility discipline (a
// lock held across the accesses, with MPI_Win_sync costs charged by the
// caller) remains the caller's responsibility, as in MPI-3.
func (w *Win) Shared(r *Rank, target int) []int64 {
	if !w.shared {
		panic(fmt.Sprintf("mpi: direct access to non-shared window %s", w.name))
	}
	if w.targetNode(target) != r.node {
		panic(fmt.Sprintf("mpi: direct access to %s[%d] from another node", w.name, target))
	}
	return w.data[target]
}
