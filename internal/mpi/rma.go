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

	// Wake-chain bookkeeping for coalesced polling: when the lock is in a
	// state some parked poller could acquire, (wakeAt, wakeBorn) is the
	// earliest pending poll decision and an engine event is scheduled at
	// that position. See rmaPort.
	wakeAt   sim.Time
	wakeBorn sim.Time
	wakeSet  bool
}

// rmaPort is one node's window port: the serial RMA service station plus the
// virtual lock-poller list that coalesces the lock-polling protocol's retry
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
type rmaPort struct {
	srv sim.Server
	// keys is a binary min-heap of pending poll steps ordered by
	// (at, born, reg): the engine's (time, scheduling-time) event order,
	// with registration order as the deterministic tie-break — exactly the
	// order the literal selection scan preferred. Keys are pointer-free so
	// every sift swap is a barrier-less 24-byte copy; items holds the
	// pollers in stable slots the keys point at. The heap makes each
	// replayed step O(log P) instead of a full rescan, and the earliest
	// pending step is an O(1) peek.
	keys      []pollerKey
	items     []*poller
	freeSlots []int32
	// byReg holds the same pollers in registration order: reconcilePort must
	// walk them exactly as the literal slice scan did, because the order in
	// which wake-chain positions are armed is part of the frozen event
	// sequence.
	byReg []*poller
	// hom is true while every registered poller targets one (win, target)
	// pair — the common shape (a node's ranks all contend for the one local
	// queue lock) — letting reconcilePort skip the whole walk with a single
	// lock-word check when that lock is exclusively held.
	hom bool
	// reg is the monotone registration counter behind the tie-break
	// (32-bit with a wrap guard, matching pollerKey.reg).
	reg uint32
	// armW/armT are reconcilePort's arm-once scratch: the locks whose
	// covering mark improved during the current walk, deduplicated.
	armW []*Win
	armT []int
	// checksInFlight counts literal first-check events scheduled on this
	// port's locks but not yet fired. The analytic fast-forward only parks an
	// attempt at issue while it is zero: a pending literal check could
	// register its poller between this issue and its own (later) check
	// instant, and registration order — which the frozen wake-arming sequence
	// depends on — must stay the literal check order.
	checksInFlight int
}

// pollerKey is a heap entry: the poller's pending-step position plus its
// stable slot in items.
type pollerKey struct {
	at   sim.Time
	born sim.Time
	// reg is 32-bit (with a wrap guard at registration): it only breaks
	// (at, born) ties, and the 24-byte key keeps ring shifts cheap.
	reg  uint32
	slot int32
}

func keyLess(a, b *pollerKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.born != b.born {
		return a.born < b.born
	}
	return a.reg < b.reg
}

// reset clears a pooled port for reuse, keeping slice capacity.
func (pt *rmaPort) reset() {
	pt.srv = sim.Server{}
	pt.keys = pt.keys[:0]
	for i := range pt.items {
		pt.items[i] = nil
	}
	pt.items = pt.items[:0]
	pt.freeSlots = pt.freeSlots[:0]
	for i := range pt.byReg {
		pt.byReg[i] = nil
	}
	pt.byReg = pt.byReg[:0]
	pt.reg = 0
	for i := range pt.armW {
		pt.armW[i] = nil
	}
	pt.armW = pt.armW[:0]
	pt.armT = pt.armT[:0]
	pt.checksInFlight = 0
}

// pending reports whether any poll step is registered.
func (pt *rmaPort) pending() bool { return len(pt.keys) > 0 }

// pushPoller registers a new waiter.
func (pt *rmaPort) pushPoller(pl *poller) {
	pt.reg++
	if pt.reg == 0 {
		panic("mpi: poller registration counter overflow")
	}
	pl.reg = pt.reg
	if len(pt.byReg) == 0 {
		pt.hom = true
	} else if pt.hom && (pl.win != pt.byReg[0].win || pl.target != pt.byReg[0].target) {
		pt.hom = false
	}
	pt.byReg = append(pt.byReg, pl)
	var slot int32
	if n := len(pt.freeSlots); n > 0 {
		slot = pt.freeSlots[n-1]
		pt.freeSlots = pt.freeSlots[:n-1]
		pt.items[slot] = pl
	} else {
		pt.items = append(pt.items, pl)
		slot = int32(len(pt.items) - 1)
	}
	h := append(pt.keys, pollerKey{at: pl.at, born: pl.born, reg: pl.reg, slot: slot})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	pt.keys = h
}

// fixRoot re-syncs the root key from its poller (whose pending step
// advanced) and restores the heap.
func (pt *rmaPort) fixRoot() {
	pl := pt.items[pt.keys[0].slot]
	pt.fixRootTo(pl.at, pl.born)
}

// fixRootTo is fixRoot with the advanced position passed in, saving the
// poller reload on the advancePort hot path.
func (pt *rmaPort) fixRootTo(at, born sim.Time) {
	h := pt.keys
	h[0].at, h[0].born = at, born
	n := len(h)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && keyLess(&h[r], &h[l]) {
			m = r
		}
		if !keyLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// popRoot removes the earliest pending step from every view.
func (pt *rmaPort) popRoot() {
	h := pt.keys
	slot := h[0].slot
	pl := pt.items[slot]
	pt.items[slot] = nil
	pt.freeSlots = append(pt.freeSlots, slot)
	n := len(h) - 1
	h[0] = h[n]
	pt.keys = h[:n]
	if n > 0 {
		pt.fixRoot()
	}
	for i, q := range pt.byReg {
		if q == pl {
			pt.byReg = append(pt.byReg[:i], pt.byReg[i+1:]...)
			break
		}
	}
}

// poller is one parked lock attempt whose retries are simulated
// arithmetically. It alternates between two phases: the next attempt
// *arriving* at the port (inService false, at = arrival time) and the
// in-flight attempt *completing and checking* the lock word (inService
// true, at = check time). Lock issuers are node-local (NewLockCont), so
// every phase is a local port round.
type poller struct {
	win    *Win
	target int
	// cont runs at the grant position, in an event with exactly the
	// (time, scheduling-time) key the literal winner's resume would have
	// had.
	cont func()

	inService bool
	at        sim.Time
	// born is the virtual time the step pending at `at` would have been
	// scheduled in the literal protocol (the previous check for an arrival,
	// the arrival for a check). Events of equal firing time fire in
	// scheduling order, so born decides ties between a replayed step and a
	// real same-instant arrival.
	born sim.Time
	reg  uint32 // registration tie-break, assigned by pushPoller
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
// eng.Now() == pl.at.
func (w *World) advancePort(node int, t, bornLimit sim.Time, incl bool) (advanced bool) {
	pt := w.memPort[node]
	mem := &w.cfg.Mem
	for pt.pending() {
		// Bail out on the root KEY alone — the hot exit skips the poller
		// indirection entirely.
		k0 := &pt.keys[0]
		if k0.at > t || (k0.at == t && (k0.born > bornLimit || (k0.born == bornLimit && !incl))) {
			return
		}
		best := pt.items[k0.slot]
		advanced = true
		if !best.inService {
			// The retry reaches the port: consume serial service exactly as
			// the literal port round would, then wait for the check moment.
			done := pt.srv.ServeAsync(best.at, mem.LockAttempt)
			best.win.LockAttempts++
			best.inService = true
			// Mirror the literal Serve bit-for-bit: the waiting rank would
			// have slept (done − now) from now, so its check is at
			// at + (done − at), which floating point does not guarantee to
			// equal done; the check event is scheduled at the arrival.
			best.born, best.at = best.at, best.at+(done-best.at)
			pt.fixRootTo(best.at, best.born)
			continue
		}
		// The attempt completes: check the lock word at its own timestamp.
		ls := &best.win.locks[best.target]
		if !ls.excl {
			ls.excl = true
			best.win.LockAcquisitions++
			pt.popRoot()
			// Resume the winner at its check time, in the position the
			// literal check event (scheduled at the attempt's arrival)
			// would have fired, so everything it schedules next gets the
			// same relative order as in the literal protocol.
			//
			// Analytic fast-forward: when the grant resolves at exactly the
			// position of the wake event this replay runs in (incl callers
			// pass their own position), the literal grant event would fire
			// immediately after the wake completes — nothing can interpose
			// at the same (time, born) key, since on a homogeneous port no
			// second wake can cover the same position (reconcilePort never
			// re-arms an identical one). Hold the continuation instead; the
			// wake runs it after reconciliation, where eng.Now() and
			// EventScheduledAt() already equal the grant position. A
			// homogeneous port serves one exclusive lock, so a replay grants
			// at most once and the slot is free here.
			if incl && best.at == t && best.born == bornLimit && pt.hom && fastFwd.Load() {
				w.inlineGrant = best.cont
			} else {
				w.eng.ScheduleAsOf(best.at, best.born, best.cont)
			}
			continue
		}
		// Failed: back off PollInterval and retry; the next arrival is the
		// back-off sleep's wake-up, scheduled at the check.
		best.inService = false
		best.born = best.at
		best.at += mem.PollInterval
		pt.fixRootTo(best.at, best.born)
	}
	return advanced
}

// reconcilePort re-establishes the wake-chain invariant after the port or a
// lock hosted on it changed: for every lock with a parked poller that could
// acquire it in the current state, an engine event is scheduled at the
// earliest such poll decision, in that decision's own event position. Stale
// wake events (the state changed again first) fire harmlessly: they just
// advance and reconcile again.
func (w *World) reconcilePort(node int) {
	pt := w.memPort[node]
	// Fast path: when every parked poller contends for the same lock and
	// that lock is exclusively held, no poller can acquire it — the walk
	// below would arm nothing. One lock-word load replaces the scan.
	if pt.hom && len(pt.byReg) > 0 && pt.byReg[0].win.locks[pt.byReg[0].target].excl {
		return
	}
	// Walk in registration order — the literal scan order — improving each
	// lock's covering mark, then arm one wake per improved lock at its final
	// mark. The literal protocol's intermediate, immediately-superseded
	// wake-ups carry no observable state of their own: a stale wake only
	// advances the port to its position, and every replayed poll step is
	// position-exact arithmetic that yields the same timestamps and counters
	// whichever trigger drives it, so only the earliest covering decision —
	// where a grant can actually resolve — needs an engine event.
	for _, pl := range pt.byReg {
		ls := &pl.win.locks[pl.target]
		if ls.excl {
			continue
		}
		if ls.wakeSet && (ls.wakeAt < pl.at || (ls.wakeAt == pl.at && ls.wakeBorn <= pl.born)) {
			continue
		}
		ls.wakeAt = pl.at
		ls.wakeBorn = pl.born
		ls.wakeSet = true
		found := false
		for i := range pt.armW {
			if pt.armW[i] == pl.win && pt.armT[i] == pl.target {
				found = true
				break
			}
		}
		if !found {
			pt.armW = append(pt.armW, pl.win)
			pt.armT = append(pt.armT, pl.target)
		}
	}
	for i := range pt.armW {
		win, target := pt.armW[i], pt.armT[i]
		pt.armW[i] = nil
		ls := &win.locks[target]
		w.scheduleWake(node, win, target, ls.wakeAt, ls.wakeBorn)
	}
	pt.armW = pt.armW[:0]
	pt.armT = pt.armT[:0]
}

// wakeRec is one pooled wake-chain link; fire is the closure bound to it
// once, so re-arming the chain allocates nothing in steady state.
type wakeRec struct {
	w      *World
	win    *Win
	target int
	node   int
	at     sim.Time
	born   sim.Time
	fire   func()
	next   *wakeRec
}

// scheduleWake arms one link of the wake chain: an event at the exact
// (time, scheduling-time) position of the poll decision it covers, firing
// after every same-instant event that preceded the literal decision and
// before every one that followed it.
func (w *World) scheduleWake(node int, win *Win, target int, at, born sim.Time) {
	wr := w.wakeFree
	if wr == nil {
		wr = &wakeRec{w: w}
		wr.fire = func() {
			w := wr.w
			ls := &wr.win.locks[wr.target]
			cleared := ls.wakeSet && ls.wakeAt == wr.at && ls.wakeBorn == wr.born
			if cleared {
				ls.wakeSet = false
			}
			node, born := wr.node, wr.born
			wr.win = nil
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
			// and the covering mark is still armed. The walk would arm
			// nothing, so skip it.
		}
	} else {
		w.wakeFree = wr.next
	}
	wr.win, wr.target, wr.node, wr.at, wr.born = win, target, node, at, born
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
func (w *Win) NewLockCont(r *Rank, target int, cont func()) func() {
	wld := w.world
	tn := w.targetNode(target)
	if tn != r.node {
		panic(fmt.Sprintf("mpi: NewLockCont on %s[%d] from another node", w.name, target))
	}
	mem := &wld.cfg.Mem
	pt := wld.memPort[tn]
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
		pl := r.pooledPoller()
		*pl = poller{win: w, target: target, cont: cont, at: born + mem.PollInterval, born: born}
		pt.pushPoller(pl)
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
				pl := r.pooledPoller()
				*pl = poller{win: w, target: target, cont: cont, at: chk + mem.PollInterval, born: chk}
				pt.pushPoller(pl)
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
// most one unlock may be in flight per issuer; the caller yields meanwhile.
// Releasing a lock that is not held panics.
func (w *Win) NewUnlockCont(r *Rank, target int, cont func(release sim.Time)) func(arrival, born sim.Time) {
	wld := w.world
	tn := w.targetNode(target)
	if tn != r.node {
		panic(fmt.Sprintf("mpi: NewUnlockCont on %s[%d] from another node", w.name, target))
	}
	pt := wld.memPort[tn]
	eng := wld.eng
	var arrival, release sim.Time
	releaseFn := func() {
		if pt.pending() {
			wld.advancePort(tn, release, eng.EventScheduledAt(), false)
		}
		ls := &w.locks[target]
		if !ls.excl {
			panic(fmt.Sprintf("mpi: unlock of unheld lock on %s[%d]", w.name, target))
		}
		ls.excl = false
		ls.relsInFlight--
		wld.reconcilePort(tn)
		cont(release)
	}
	arriveFn := func() {
		if pt.pending() {
			wld.advancePort(tn, arrival, eng.EventScheduledAt(), false)
		}
		done := pt.srv.ServeAsync(arrival, wld.cfg.Mem.SharedWinOp)
		release = arrival + (done - arrival)
		eng.AbsorbAsOf(release, arrival, releaseFn)
	}
	return func(arr, born sim.Time) {
		arrival = arr
		w.locks[target].relsInFlight++
		eng.AbsorbAsOf(arr, born, arriveFn)
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
// may be in flight per issuer; the issuer and its closures are allocated
// once, so steady-state issues allocate nothing. The caller must already
// be executing inside an engine event, so the pre-service poll replay sees
// the same EventScheduledAt as the literal call site.
func (w *Win) NewFetchAndOpCont(r *Rank) func(target, offset int, delta int64, cont func(old int64)) {
	wld := w.world
	eng := wld.eng
	net := &wld.cfg.Net
	var (
		target, offset int
		delta          int64
		cont           func(int64)
	)
	finish := func() {
		old := w.data[target][offset]
		w.data[target][offset] = old + delta
		cont(old)
	}
	servedRemote := func() {
		now := eng.Now()
		eng.AbsorbAsOf(now+net.Latency, now, finish)
	}
	arriveRemote := func() {
		tn := w.targetNode(target)
		pt := wld.memPort[tn]
		if pt.pending() {
			wld.advancePort(tn, eng.Now(), eng.EventScheduledAt(), false)
		}
		now := eng.Now()
		done := pt.srv.ServeAsync(now, wld.cfg.Mem.SharedWinOp+net.PortService)
		eng.AbsorbAsOf(now+(done-now), now, servedRemote)
	}
	return func(t, off int, d int64, c func(int64)) {
		target, offset, delta, cont = t, off, d, c
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
