package main

import (
	"runtime"
	"time"

	"repro/hdls"
	"repro/internal/castore"
	"repro/internal/core"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// counters snapshots the process-wide counters a window's per-layer
// metrics difference: heap allocations and simulation-arena pool traffic.
type counters struct {
	mallocs        uint64
	reuses, builds int64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r, b, _ := core.ArenaStats()
	return counters{mallocs: ms.Mallocs, reuses: r, builds: b}
}

// coreMetrics derives the core, mpi, openmp and sim host-cost metrics from
// timed RunSummary calls. Each cell class is measured on obs; a class obs
// lacks (paper-grid has no no-wait cells, scenario-grid no 16-node cells)
// is measured on the layer probe's cells instead.
func coreMetrics(m metrics, obs, probe []cellObs) {
	class := func(name string, in func(hdls.Config) bool) {
		for _, src := range [][]cellObs{obs, probe} {
			var host time.Duration
			n := 0
			for _, o := range src {
				if o.err == nil && in(o.cfg) {
					host += o.host
					n++
				}
			}
			if n > 0 {
				m.set("core.host_ms_per_cell."+name, ms(host)/float64(n), "ms")
				return
			}
		}
		m.set("core.host_ms_per_cell."+name, 0, "ms")
	}
	class("mpimpi", func(c hdls.Config) bool { return c.Approach == hdls.MPIMPI })
	class("mpiopenmp", func(c hdls.Config) bool { return c.Approach == hdls.MPIOpenMP })
	class("nowait", func(c hdls.Config) bool { return c.Approach == hdls.MPIOpenMPNoWait })
	class("nodes16", func(c hdls.Config) bool { return c.Nodes == 16 })

	var host, mpiHost, ompHost time.Duration
	var chunks, attempts, localChunks int64
	var simTime float64
	for _, o := range obs {
		if o.err != nil {
			continue
		}
		host += o.host
		chunks += int64(o.sum.GlobalChunks + o.sum.LocalChunks)
		simTime += float64(o.sum.ParallelTime)
		if o.cfg.Approach == hdls.MPIMPI {
			mpiHost += o.host
			attempts += o.sum.LockAttempts
		} else {
			ompHost += o.host
			localChunks += int64(o.sum.LocalChunks)
		}
	}
	m.set("core.host_us_per_chunk", ratio(float64(host/time.Nanosecond)/1e3, float64(chunks)), "us")
	m.set("mpi.host_ns_per_lock_attempt", ratio(float64(mpiHost/time.Nanosecond), float64(attempts)), "ns")
	m.set("openmp.host_us_per_local_chunk", ratio(float64(ompHost/time.Nanosecond)/1e3, float64(localChunks)), "us")
	m.set("sim.sim_s_per_host_s", ratio(simTime, host.Seconds()), "ratio")
}

// windowMetrics adds the allocation and arena-reuse rates of a window of
// cells between two counter snapshots.
func windowMetrics(m metrics, before, after counters, cells int) {
	m.set("core.allocs_per_cell", ratio(float64(after.mallocs-before.mallocs), float64(cells)), "count")
	reuses, builds := after.reuses-before.reuses, after.builds-before.builds
	m.set("core.arena_reuse_ratio", ratio(float64(reuses), float64(reuses+builds)), "ratio")
}

// simMetrics sums the simulated statistics of a fixed cell set. They are
// outputs of the model, not host costs: they repeat exactly for one seed,
// and a change that only speeds up the simulator leaves them unchanged.
func simMetrics(m metrics, sums []hdls.Summary) {
	var attempts, acq, global, local int64
	var barrier, parallel float64
	for _, s := range sums {
		attempts += s.LockAttempts
		acq += s.LockAcquisitions
		global += int64(s.GlobalChunks)
		local += int64(s.LocalChunks)
		barrier += float64(s.BarrierWait)
		parallel += float64(s.ParallelTime)
	}
	m.set("mpi.lock_attempts", float64(attempts), "count")
	m.set("mpi.lock_acquisitions", float64(acq), "count")
	m.set("mpi.lock_success_ratio", ratio(float64(acq), float64(attempts)), "ratio")
	m.set("dls.global_chunks", float64(global), "count")
	m.set("dls.local_chunks", float64(local), "count")
	m.set("openmp.barrier_wait_sim_s", barrier, "sim_s")
	m.set("sim.parallel_time_sum_s", parallel, "sim_s")
}

// serveObs is a traced serve window with everything its metrics need.
type serveObs struct {
	run      serveRun
	handled  map[int64]handlerObs
	refs     map[string]*directRef
	store    castore.Stats // counter deltas over the window
	allocs   uint64        // heap allocations over the window
	lookupUS float64       // mean timed LookupLocal

	// direct brackets the direct runs of refs, for the core window metrics.
	direct [2]counters
}

// serveMetrics derives the serve and castore metrics of a traced window.
func serveMetrics(m metrics, s serveObs) {
	var hit, miss, transport []float64
	var overhead time.Duration
	computed := 0
	for c := range s.run.logs {
		log := &s.run.logs[c]
		for k, sent := range log.kept {
			h, ok := s.handled[reqID(c, k)]
			if _, failed := log.fails[k]; !ok || failed {
				continue
			}
			transport = append(transport, ms(sent.lat)-ms(h.dur))
			if sent.req.sweep {
				continue
			}
			switch h.cache {
			case "hit":
				hit = append(hit, ms(h.dur))
			case "miss":
				miss = append(miss, ms(h.dur))
				if ref := s.refs[s.run.gens[c].hash(sent.req.cells[0])]; ref != nil {
					overhead += h.dur - ref.host
					computed++
				}
			}
		}
	}
	m.set("serve.handler_ms_p50.hit", median(hit), "ms")
	m.set("serve.handler_ms_p50.miss", median(miss), "ms")
	m.set("serve.transport_ms_p50", median(transport), "ms")
	m.set("serve.overhead_ms_per_computed_cell", ratio(ms(overhead), float64(computed)), "ms")
	m.set("serve.allocs_per_request", ratio(float64(s.allocs), float64(s.run.requests())), "count")
	st := s.store
	m.set("castore.hit_ratio", ratio(float64(st.Hits()), float64(st.Hits()+st.Misses)), "ratio")
	m.set("castore.collapsed", float64(st.Collapsed), "count")
	m.set("castore.lookup_us", s.lookupUS, "us")
}

// storeDelta is after − before for the counters serveMetrics reads.
func storeDelta(before, after castore.Stats) castore.Stats {
	return castore.Stats{
		MemHits:   after.MemHits - before.MemHits,
		DiskHits:  after.DiskHits - before.DiskHits,
		PeerHits:  after.PeerHits - before.PeerHits,
		Misses:    after.Misses - before.Misses,
		Collapsed: after.Collapsed - before.Collapsed,
	}
}

// timeLookups times castore LookupLocal over the stored hashes, repeated
// to at least 2000 lookups, and returns the mean in microseconds.
func timeLookups(st *castore.Store, hashes []string, tr *tracer) float64 {
	if len(hashes) == 0 {
		return 0
	}
	trace := tr.newTrace()
	sp := tr.begin(trace, 0, "castore.lookup")
	defer sp.end()
	n := 0
	t0 := time.Now()
	for n < 2000 {
		for _, h := range hashes {
			st.LookupLocal(h)
			n++
		}
	}
	return float64(time.Since(t0)/time.Nanosecond) / 1e3 / float64(n)
}

// traceServe runs a traced serve window: the serve-mixed stream, or — for
// the layer probe — the fixed requests of probe, sent by one client. It
// returns the observations and the direct-run references of every cell
// the window sent, plus extra.
func traceServe(s *session, seed int64, window time.Duration, probe *probeSet, extra []hdls.Config) serveObs {
	before, storeBefore := readCounters(), s.srv.Store().Stats()
	var run serveRun
	if probe == nil {
		run = runServe(s, seed, window)
	} else {
		run = runRequests(s, probe.gen, probe.reqs)
	}
	after, storeAfter := readCounters(), s.srv.Store().Stats()
	refBefore := readCounters()
	refs := directRefs(run, extra, s.tr)
	refAfter := readCounters()
	hashes := make([]string, 0, len(refs))
	for h := range refs {
		hashes = append(hashes, h)
	}
	s.mu.Lock()
	handled := make(map[int64]handlerObs, len(s.handled))
	for k, v := range s.handled {
		handled[k] = v
	}
	s.mu.Unlock()
	return serveObs{
		run: run, handled: handled, refs: refs,
		store:    storeDelta(storeBefore, storeAfter),
		allocs:   after.mallocs - before.mallocs,
		lookupUS: timeLookups(s.srv.Store(), hashes, s.tr),
		direct:   [2]counters{refBefore, refAfter},
	}
}

// probeSet is the layer probe of the library workloads' traced runs:
// twelve small cells covering every approach and a 16-node machine, each
// sent cold once and then twice more as memory-tier hits.
type probeSet struct {
	gen  *streamGen
	reqs []request
}

func newProbe(seed int64) *probeSet {
	p := &probeSet{gen: newStreamGen(seed, 0, 12)}
	table := make([]coldCell, 12)
	for i := range table {
		table[i] = p.gen.params(int32(i))
		table[i].approach = uint8(i % len(coldApproaches))
		if i%4 == 0 {
			table[i].nodes = uint8(len(coldNodes) - 1) // 16 nodes
		}
	}
	p.gen.table, p.gen.n = table, int32(len(table))
	for rep := 0; rep < 3; rep++ {
		for i := range table {
			p.reqs = append(p.reqs, request{cells: []int32{int32(i)}})
		}
	}
	return p
}

// refObs turns direct-run references into timed-cell observations.
func refObs(refs map[string]*directRef) []cellObs {
	out := make([]cellObs, 0, len(refs))
	for _, r := range refs {
		out = append(out, cellObs{cfg: r.cfg, host: r.host, sum: r.sum, err: r.err})
	}
	return out
}
