package openmp

import (
	"sort"
	"testing"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runLoop runs f once on a fresh team, from an event at time zero, and
// returns the loop's result. It checks that the join fires exactly once, at
// the barrier release.
func runLoop(t *testing.T, threads int, f For) (ForResult, *Team) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(1)
	team, err := NewTeam(eng, &cfg, 0, threads)
	if err != nil {
		t.Fatal(err)
	}
	var res ForResult
	joins := 0
	eng.Schedule(0, func() {
		team.ParallelFor(f, func(r ForResult) {
			joins++
			res = r
			res.ThreadFinish = append([]sim.Time(nil), r.ThreadFinish...)
			if eng.Now() != r.MaxFinish {
				t.Errorf("master left the join at %v, barrier released at %v", eng.Now(), r.MaxFinish)
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if joins != 1 {
		t.Fatalf("loop joined %d times, want 1", joins)
	}
	return res, team
}

// loops runs k loops of f back to back on team, each started from the
// previous loop's join, and returns their results.
func loops(t *testing.T, team *Team, k int, f For) []ForResult {
	t.Helper()
	var out []ForResult
	var next func()
	next = func() {
		team.ParallelFor(f, func(r ForResult) {
			r.ThreadFinish = append([]sim.Time(nil), r.ThreadFinish...)
			out = append(out, r)
			if len(out) < k {
				next()
			}
		})
	}
	team.eng.Schedule(0, next)
	if err := team.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) != k {
		t.Fatalf("%d of %d loops joined", len(out), k)
	}
	return out
}

// coverageFor runs the loop and asserts each iteration executes exactly once.
func coverageFor(t *testing.T, threads, n int, sched ScheduleKind, chunk int) (ForResult, *Team) {
	t.Helper()
	prof := workload.Uniform(n, 1e-6, 5e-6, 42)
	seen := make([]int, n)
	f := For{
		N:         n,
		Schedule:  sched,
		Chunk:     chunk,
		RangeCost: func(a, b int) sim.Time { return prof.Range(a, b) },
		Visit: func(tid, a, b int, start, end sim.Time) {
			for i := a; i < b; i++ {
				seen[i]++
			}
		},
	}
	res, team := runLoop(t, threads, f)
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%v: iteration %d executed %d times", sched, i, c)
		}
	}
	return res, team
}

func TestScheduleMapping(t *testing.T) {
	// The paper's Table 1.
	cases := []struct {
		tech dls.Technique
		want ScheduleKind
	}{
		{dls.STATIC, ScheduleStatic},
		{dls.SS, ScheduleDynamic},
		{dls.GSS, ScheduleGuided},
		{dls.TSS, ScheduleTSS},
		{dls.FAC2, ScheduleFAC2},
	}
	for _, c := range cases {
		got, err := MapTechnique(c.tech)
		if err != nil {
			t.Fatalf("MapTechnique(%v): %v", c.tech, err)
		}
		if got != c.want {
			t.Fatalf("MapTechnique(%v) = %v, want %v", c.tech, got, c.want)
		}
	}
	// Stock runtimes support only the three standard clauses.
	for _, k := range []ScheduleKind{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		if k.Extended() {
			t.Fatalf("%v flagged extended", k)
		}
	}
	for _, k := range []ScheduleKind{ScheduleTSS, ScheduleFAC2, ScheduleRandom} {
		if !k.Extended() {
			t.Fatalf("%v not flagged extended", k)
		}
	}
	if _, err := MapTechnique(dls.FAC); err == nil {
		t.Fatal("MapTechnique accepted FAC")
	}
}

func TestNewTeamValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(1)
	if _, err := NewTeam(eng, &cfg, 0, 0); err == nil {
		t.Fatal("accepted 0 threads")
	}
	if _, err := NewTeam(eng, &cfg, 0, cfg.CoresPerNode+1); err == nil {
		t.Fatal("accepted oversubscription")
	}
}

func TestCoverageAllSchedules(t *testing.T) {
	for _, sched := range []ScheduleKind{
		ScheduleStatic, ScheduleDynamic, ScheduleGuided,
		ScheduleTSS, ScheduleFAC2, ScheduleRandom,
	} {
		coverageFor(t, 8, 1000, sched, 0)
	}
	// Chunked variants.
	coverageFor(t, 8, 1000, ScheduleDynamic, 16)
	coverageFor(t, 8, 1000, ScheduleGuided, 8)
	coverageFor(t, 4, 1000, ScheduleStatic, 32) // static,k cyclic
	// Edge sizes.
	coverageFor(t, 8, 1, ScheduleDynamic, 0)
	coverageFor(t, 8, 7, ScheduleStatic, 0)
	coverageFor(t, 3, 0, ScheduleGuided, 0)
}

func TestStaticSplitIsContiguousAndEven(t *testing.T) {
	n, threads := 100, 4
	var ranges [][3]int
	f := For{
		N:         n,
		Schedule:  ScheduleStatic,
		RangeCost: func(a, b int) sim.Time { return sim.Time(b-a) * 1e-6 },
		Visit: func(tid, a, b int, _, _ sim.Time) {
			ranges = append(ranges, [3]int{tid, a, b})
		},
	}
	runLoop(t, threads, f)
	if len(ranges) != threads {
		t.Fatalf("static produced %d ranges, want %d", len(ranges), threads)
	}
	for _, r := range ranges {
		if r[2]-r[1] != 25 {
			t.Fatalf("uneven static block: %v", r)
		}
		if r[1] != r[0]*25 {
			t.Fatalf("block not aligned to thread id: %v", r)
		}
	}
}

func TestImplicitBarrierWaits(t *testing.T) {
	// One expensive iteration: under static, one thread gets all the load in
	// its block; everyone else must wait at the barrier.
	n, threads := 64, 8
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1e-6
	}
	costs[0] = 1e-3 // thread 0's block is 1000× the others
	prof := workload.MustNew("spike", costs)
	f := For{
		N:         n,
		Schedule:  ScheduleStatic,
		RangeCost: func(a, b int) sim.Time { return prof.Range(a, b) },
	}
	res, _ := runLoop(t, threads, f)
	if res.BarrierWait < 6e-3 { // ≈7 threads × ~1ms each
		t.Fatalf("BarrierWait = %v, want ≈7ms of accumulated idling", res.BarrierWait)
	}
	var sum sim.Time
	for _, fin := range res.ThreadFinish {
		sum += res.MaxFinish - fin
	}
	if sum != res.BarrierWait {
		t.Fatalf("BarrierWait = %v, want Σ(MaxFinish − finish) = %v", res.BarrierWait, sum)
	}
	// Master leaves at the barrier release (runLoop checks its clock).
	if res.MaxFinish <= 1e-3 {
		t.Fatalf("MaxFinish = %v, want > 1ms", res.MaxFinish)
	}
}

func TestDynamicBalancesSpikeLoad(t *testing.T) {
	// Same spiked workload: dynamic,1 must finish much faster than static.
	n, threads := 64, 8
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1e-6
	}
	costs[0] = 1e-3
	prof := workload.MustNew("spike", costs)
	mk := func(s ScheduleKind) sim.Time {
		f := For{N: n, Schedule: s,
			RangeCost: func(a, b int) sim.Time { return prof.Range(a, b) }}
		res, _ := runLoop(t, threads, f)
		return res.MaxFinish
	}
	static := mk(ScheduleStatic)
	dynamic := mk(ScheduleDynamic)
	if dynamic >= static {
		t.Fatalf("dynamic (%v) not faster than static (%v) on spiked load", dynamic, static)
	}
}

func TestGuidedChunksShrink(t *testing.T) {
	n, threads := 1000, 4
	var sizes []int
	f := For{
		N:        n,
		Schedule: ScheduleGuided,
		RangeCost: func(a, b int) sim.Time {
			return sim.Time(b-a) * 1e-6
		},
		Visit: func(tid, a, b int, _, _ sim.Time) { sizes = append(sizes, b-a) },
	}
	runLoop(t, threads, f)
	// Visit fires at completion, so sizes are in completion order; compare
	// the extremes instead.
	maxC, minC := 0, n
	for _, s := range sizes {
		if s > maxC {
			maxC = s
		}
		if s < minC {
			minC = s
		}
	}
	if maxC != 250 {
		t.Fatalf("largest guided chunk = %d, want 250", maxC)
	}
	if minC > 4 {
		t.Fatalf("smallest guided chunk = %d, want small", minC)
	}
}

func TestGuidedMinChunkParameter(t *testing.T) {
	n := 1000
	var sizes []int
	f := For{
		N:        n,
		Schedule: ScheduleGuided,
		Chunk:    50,
		RangeCost: func(a, b int) sim.Time {
			return sim.Time(b-a) * 1e-6
		},
		Visit: func(tid, a, b int, _, _ sim.Time) { sizes = append(sizes, b-a) },
	}
	runLoop(t, 4, f)
	for i, s := range sizes[:len(sizes)-1] {
		if s < 50 {
			t.Fatalf("guided,50 chunk %d = %d below minimum", i, s)
		}
	}
}

func TestExtendedTSSMatchesDLSPackage(t *testing.T) {
	n, threads := 1000, 4
	var sizes []int
	f := For{
		N:        n,
		Schedule: ScheduleTSS,
		RangeCost: func(a, b int) sim.Time {
			return sim.Time(b-a) * 1e-6
		},
		Visit: func(tid, a, b int, _, _ sim.Time) { sizes = append(sizes, b-a) },
	}
	runLoop(t, threads, f)
	want := dls.ChunkSizes(dls.MustNew(dls.TSS, dls.Params{N: n, P: threads}))
	// Visit order is completion order, so compare as multisets.
	if len(sizes) != len(want) {
		t.Fatalf("TSS issued %d chunks, reference %d", len(sizes), len(want))
	}
	sort.Ints(sizes)
	sort.Ints(want)
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("TSS chunk multiset differs at %d: %d vs %d", i, sizes[i], want[i])
		}
	}
}

func TestAtomicContentionSerializes(t *testing.T) {
	// With zero-cost iterations, dynamic,1 throughput is bounded by the
	// atomic port: total time ≈ N × LocalAtomic regardless of thread count.
	n := 2000
	cfg := cluster.MiniHPC(1)
	f := For{
		N:         n,
		Schedule:  ScheduleDynamic,
		RangeCost: func(a, b int) sim.Time { return 1e-12 },
	}
	res, _ := runLoop(t, 16, f)
	floor := sim.Time(n) * cfg.Mem.LocalAtomic
	if res.MaxFinish < floor {
		t.Fatalf("finish %v beat the atomic serialization floor %v", res.MaxFinish, floor)
	}
	if res.MaxFinish > 3*floor {
		t.Fatalf("finish %v far above the serialization floor %v", res.MaxFinish, floor)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		prof := workload.Exponential(512, 20e-6, 7)
		f := For{
			N:         512,
			Schedule:  ScheduleGuided,
			RangeCost: func(a, b int) sim.Time { return prof.Range(a, b) },
		}
		res, _ := runLoop(t, 8, f)
		return res.MaxFinish
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestLoopAccounting(t *testing.T) {
	// coverageFor's runLoop checks the loop joined exactly once.
	res, _ := coverageFor(t, 4, 500, ScheduleDynamic, 10)
	if res.Chunks != 50 {
		t.Fatalf("Chunks = %d, want 50", res.Chunks)
	}
	if len(res.ThreadFinish) != 4 {
		t.Fatalf("%d thread finish times, want 4", len(res.ThreadFinish))
	}
}

func BenchmarkParallelForDynamic(b *testing.B) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(1)
	team, _ := NewTeam(eng, &cfg, 0, 16)
	prof := workload.Uniform(1<<12, 1e-6, 3e-6, 1)
	f := For{
		N: prof.N(), Schedule: ScheduleDynamic,
		RangeCost: func(x, y int) sim.Time { return prof.Range(x, y) },
	}
	left := b.N
	var next func(ForResult)
	next = func(ForResult) {
		if left--; left >= 0 {
			team.ParallelFor(f, next)
		}
	}
	eng.Schedule(0, func() { next(ForResult{}) })
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestRandomScheduleDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) sim.Time {
		eng := sim.NewEngine(seed)
		cfg := cluster.MiniHPC(1)
		team, _ := NewTeam(eng, &cfg, 0, 4)
		prof := workload.Uniform(512, 10e-6, 40e-6, 7)
		res := loops(t, team, 1, For{
			N: 512, Schedule: ScheduleRandom,
			RangeCost: func(a, b int) sim.Time { return prof.Range(a, b) },
		})
		return res[0].MaxFinish
	}
	if run(5) != run(5) {
		t.Fatal("random schedule not reproducible for a fixed seed")
	}
	if run(5) == run(6) {
		t.Fatal("random schedule identical across seeds")
	}
}

func TestGuidedMoreThreadsThanIterations(t *testing.T) {
	res, _ := coverageFor(t, 16, 5, ScheduleGuided, 0)
	if res.Chunks > 5 {
		t.Fatalf("guided issued %d chunks for 5 iterations", res.Chunks)
	}
}

func TestSequentialLoopsAccumulate(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(1)
	team, _ := NewTeam(eng, &cfg, 0, 4)
	prof := workload.Constant(64, 5e-6)
	res := loops(t, team, 3, For{
		N: 64, Schedule: ScheduleDynamic, Chunk: 4,
		RangeCost: func(a, b int) sim.Time { return prof.Range(a, b) },
	})
	chunks := 0
	for i, r := range res {
		chunks += r.Chunks
		// Each loop forks after the previous one joined.
		if i > 0 {
			for tid, fin := range r.ThreadFinish {
				if fin <= res[i-1].MaxFinish {
					t.Fatalf("loop %d thread %d finished at %v, before loop %d joined at %v",
						i, tid, fin, i-1, res[i-1].MaxFinish)
				}
			}
		}
	}
	if chunks != 3*16 {
		t.Fatalf("Chunks = %d, want 48", chunks)
	}
}

func TestParallelForPanicsOnMisuse(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(1)
	team, _ := NewTeam(eng, &cfg, 0, 2)
	panics := 0
	try := func(f For) {
		defer func() {
			if recover() != nil {
				panics++
			}
		}()
		team.ParallelFor(f, func(ForResult) {})
	}
	cost := func(a, b int) sim.Time { return 0 }
	eng.Schedule(0, func() {
		try(For{N: -1, Schedule: ScheduleStatic, RangeCost: cost})
		try(For{N: 10, Schedule: ScheduleStatic})
	})
	// A second loop while one is in flight.
	eng.Schedule(0, func() {
		team.ParallelFor(For{N: 10, Schedule: ScheduleStatic, RangeCost: cost}, func(ForResult) {})
	})
	eng.Schedule(0, func() {
		try(For{N: 10, Schedule: ScheduleStatic, RangeCost: cost})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if panics != 3 {
		t.Fatalf("%d panics, want 3 (negative N, missing RangeCost, loop in flight)", panics)
	}
}
