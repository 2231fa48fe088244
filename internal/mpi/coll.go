package mpi

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Comm is a communicator: a contiguous range of world ranks. Comm rank i
// is world rank base+i. Both communicators the model builds — the world
// and the node-local ones of SplitTypeShared — are contiguous because
// ranks are placed contiguously by node.
type Comm struct {
	world *World
	base  int
	size  int
	name  string
	// In-flight collective states, indexed seq − collBase. States retire in
	// sequence order (every rank passes collective k before entering k+1),
	// so the window is a short sliding slice; retired states recycle through
	// collFree, which keeps steady-state collectives allocation-free.
	collRing []*collState
	collBase int
	collFree *collState
	// seqOf[commRank] is that rank's next collective sequence number — the
	// per-comm call counter that enforces "all ranks invoke collectives in
	// the same order" without a per-rank map.
	seqOf []int
	nodes int // distinct nodes spanned (computed lazily)
}

// newComm builds the communicator over world ranks [base, base+size).
func newComm(w *World, base, size int, name string) *Comm {
	return &Comm{world: w, base: base, size: size, name: name, seqOf: make([]int, size)}
}

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Name returns the communicator's debug name.
func (c *Comm) Name() string { return c.name }

// RankOf returns r's rank within c, or -1 if r is not a member.
func (c *Comm) RankOf(r *Rank) int {
	i := r.rank - c.base
	if i < 0 || i >= c.size {
		return -1
	}
	return i
}

// spansNodes reports how many distinct nodes the communicator covers:
// contiguous world ranks cover a contiguous node range.
func (c *Comm) spansNodes() int {
	if c.nodes == 0 {
		c.nodes = c.world.ranks[c.base+c.size-1].node - c.world.ranks[c.base].node + 1
	}
	return c.nodes
}

// SplitTypeShared models MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): it
// returns the communicator of all world ranks sharing r's node. The result
// is memoized so every rank of a node receives the same *Comm.
func (w *World) SplitTypeShared(r *Rank) *Comm {
	if w.nodeComms == nil {
		w.nodeComms = make([]*Comm, w.cfg.Nodes)
	}
	n := r.node
	if w.nodeComms[n] == nil {
		w.nodeComms[n] = newComm(w, w.nodeOff[n], w.nodeRanks[n], fmt.Sprintf("node%d", n))
	}
	return w.nodeComms[n]
}

// collState tracks one in-flight collective operation on a communicator.
type collState struct {
	seq     int
	arrived int
	passed  int
	// conts holds the continuations of the ranks still waiting, in arrival
	// order.
	conts []func()
	// win is the window a collective allocation hands every rank.
	win  *Win
	kind string
	next *collState // freelist link
}

// enter locates (or creates) the state for this rank's next collective call
// on c, enforcing that all ranks invoke collectives in the same order.
// Lookup is O(1): the per-rank sequence counter indexes the sliding window
// of in-flight states, and retired states are recycled from a freelist.
func (c *Comm) enter(r *Rank, kind string) *collState {
	me := c.RankOf(r)
	seq := c.seqOf[me]
	c.seqOf[me] = seq + 1
	idx := seq - c.collBase
	for idx >= len(c.collRing) {
		c.collRing = append(c.collRing, nil)
	}
	st := c.collRing[idx]
	if st == nil {
		st = c.collFree
		if st == nil {
			st = &collState{}
		} else {
			c.collFree = st.next
			st.next = nil
			st.arrived, st.passed, st.win = 0, 0, nil
		}
		st.kind = kind
		st.seq = seq
		c.collRing[idx] = st
	} else if st.kind != kind {
		panic(fmt.Sprintf("mpi: collective mismatch on %s: %s vs %s", c.name, st.kind, kind))
	}
	return st
}

// arriveCont records r's arrival at a collective; cont runs once every rank
// has arrived and the collective's cost has elapsed. The release is the
// wake-then-charge chain of a blocking barrier: when the last rank arrives,
// each waiter gets a wake event at the current instant in arrival order,
// the last arriver's post-cost continuation is pushed next, and each woken
// rank pushes its own post-cost continuation when its wake event fires.
func (c *Comm) arriveCont(st *collState, cost sim.Time, cont func()) {
	st.arrived++
	if st.arrived < c.Size() {
		st.conts = append(st.conts, cont)
		return
	}
	eng := c.world.eng
	now := eng.Now()
	for _, wc := range st.conts {
		wc := wc
		eng.ScheduleAsOf(now, now, func() {
			eng.ScheduleAsOf(now+cost, now, wc)
		})
	}
	st.conts = st.conts[:0]
	eng.ScheduleAsOf(now+cost, now, cont)
}

// leave retires the state once every rank has passed through. States retire
// in sequence order (a rank passes collective k before entering k+1), so
// retirement slides the ring window forward and recycles the state.
func (c *Comm) leave(r *Rank, st *collState) {
	st.passed++
	if st.passed == c.Size() {
		c.collRing[st.seq-c.collBase] = nil
		for len(c.collRing) > 0 && c.collRing[0] == nil {
			c.collRing = c.collRing[1:]
			c.collBase++
		}
		st.next = c.collFree
		c.collFree = st
	}
}

// latencyCost models a tree collective: depth × per-hop cost, where the
// per-hop cost is the network latency for multi-node communicators and a
// cheap shared-memory flag for node-local ones.
func (c *Comm) latencyCost(rounds int) sim.Time {
	w := c.world
	depth := sim.Time(math.Ceil(math.Log2(float64(c.Size()))))
	if c.Size() == 1 {
		return 0
	}
	var perHop sim.Time
	if c.spansNodes() > 1 {
		perHop = w.cfg.Net.Latency + w.cfg.Net.PortService
	} else {
		perHop = 4 * w.cfg.Mem.LocalAtomic
	}
	return sim.Time(rounds) * depth * perHop
}

// BarrierCont is MPI_Barrier: cont runs once every rank of c has entered,
// at the event position where a blocking caller resumed past the barrier.
func (c *Comm) BarrierCont(r *Rank, cont func()) {
	st := c.enter(r, "barrier")
	c.arriveCont(st, c.latencyCost(2), func() {
		c.leave(r, st)
		cont()
	})
}
