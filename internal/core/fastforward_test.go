package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/workload"
)

// allInter is every inter-node technique the executors accept (the
// adaptive AWF/AF family exists only at the dls reference level and is
// rejected by Config.Validate, so it cannot diverge).
var allInter = []dls.Technique{
	dls.STATIC, dls.SS, dls.FSC, dls.GSS, dls.TSS, dls.FAC, dls.FAC2,
	dls.WF, dls.TFSS, dls.RND,
}

// fuzzIntra is the intra-level pool (the executors accept a subset of the
// techniques at the intra level, see intraSupported).
var fuzzIntra = []dls.Technique{
	dls.STATIC, dls.SS, dls.FSC, dls.GSS, dls.TSS, dls.FAC, dls.FAC2, dls.TFSS, dls.RND,
}

// fuzzConfig draws one randomized cell: topology (node count, heterogeneous
// speeds and core counts), perturbations (noise, transient slowdowns,
// background load) and workload are all fuzzed. Noisy configs are fair game:
// the fast-forward preserves the host order of every RNG draw, so it needs
// no smooth-machine gating.
func fuzzConfig(rng *rand.Rand, inter dls.Technique) Config {
	nodes := []int{1, 2, 3, 4, 8}[rng.Intn(5)]
	cl := cluster.MiniHPC(nodes)
	if rng.Intn(3) == 0 { // heterogeneous speeds, tiled like -speeds
		pat := [][]float64{{1, 0.5}, {1, 0.45, 2}}[rng.Intn(2)]
		sp := make([]float64, nodes)
		for i := range sp {
			sp[i] = pat[i%len(pat)]
		}
		cl.NodeSpeed = sp
	}
	if rng.Intn(4) == 0 { // heterogeneous core counts
		cores := make([]int, nodes)
		for i := range cores {
			cores[i] = []int{4, 8, 16}[rng.Intn(3)]
		}
		cl.NodeCores = cores
	}
	var pc perturb.Config
	switch rng.Intn(4) {
	case 0:
		pc.NoiseCV = []float64{0.1, 0.3, 0.7}[rng.Intn(3)]
	case 1:
		pc.SlowdownRate = 50
		pc.SlowdownFactor = 2 + rng.Float64()*2
		pc.SlowdownDuration = 0.005
	case 2:
		pc.NoiseCV = 0.2
		pc.BackgroundLoad = []float64{0, rng.Float64() * 0.4}
	}
	n := 512 + rng.Intn(4096)
	var prof *workload.Profile
	if rng.Intn(2) == 0 {
		prof = workload.Uniform(n, 20e-6, 60e-6, rng.Int63n(1e6)+1)
	} else {
		prof = workload.Gaussian(n, 40e-6, 15e-6, rng.Int63n(1e6)+1)
	}
	wpn := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
	if mc := cl.MaxCores(); wpn > mc {
		wpn = mc
	}
	cfg := Config{
		Cluster:        cl,
		WorkersPerNode: wpn,
		Inter:          inter,
		Intra:          fuzzIntra[rng.Intn(len(fuzzIntra))],
		Workload:       prof,
		Approach:       MPIMPI,
		Seed:           rng.Int63n(1e6) + 1,
		Perturb:        pc,
		CollectTrace:   true,
	}
	if rng.Intn(4) == 0 {
		cfg.Approach = []Approach{MPIOpenMP, MPIOpenMPNoWait}[rng.Intn(2)]
		cfg.ExtendedRuntime = true // admit the TSS/FAC2 clauses too
		omp := []dls.Technique{dls.STATIC, dls.SS, dls.GSS, dls.TSS, dls.FAC2}
		cfg.Intra = omp[rng.Intn(len(omp))]
	}
	return cfg
}

// diffResults compares two runs of the same configuration field by field,
// including the full host-ordered trace, and returns a description of the
// first divergence ("" when byte-identical).
func diffResults(a, b *Result) string {
	if a.ParallelTime != b.ParallelTime {
		return fmt.Sprintf("ParallelTime %v != %v", a.ParallelTime, b.ParallelTime)
	}
	if a.LoadImbalance != b.LoadImbalance {
		return fmt.Sprintf("LoadImbalance %v != %v", a.LoadImbalance, b.LoadImbalance)
	}
	if a.GlobalChunks != b.GlobalChunks || a.LocalChunks != b.LocalChunks {
		return fmt.Sprintf("chunks (%d,%d) != (%d,%d)", a.GlobalChunks, a.LocalChunks, b.GlobalChunks, b.LocalChunks)
	}
	if a.LockAttempts != b.LockAttempts || a.LockAcquisitions != b.LockAcquisitions {
		return fmt.Sprintf("locks (%d,%d) != (%d,%d)", a.LockAttempts, a.LockAcquisitions, b.LockAttempts, b.LockAcquisitions)
	}
	if a.BarrierWait != b.BarrierWait {
		return fmt.Sprintf("BarrierWait %v != %v", a.BarrierWait, b.BarrierWait)
	}
	for i := range a.WorkerFinish {
		if a.WorkerFinish[i] != b.WorkerFinish[i] {
			return fmt.Sprintf("WorkerFinish[%d] %v != %v", i, a.WorkerFinish[i], b.WorkerFinish[i])
		}
		if a.WorkerCompute[i] != b.WorkerCompute[i] {
			return fmt.Sprintf("WorkerCompute[%d] %v != %v", i, a.WorkerCompute[i], b.WorkerCompute[i])
		}
	}
	for i := range a.NodeFinish {
		if a.NodeFinish[i] != b.NodeFinish[i] {
			return fmt.Sprintf("NodeFinish[%d] %v != %v", i, a.NodeFinish[i], b.NodeFinish[i])
		}
	}
	if len(a.Trace.Events) != len(b.Trace.Events) {
		return fmt.Sprintf("trace length %d != %d", len(a.Trace.Events), len(b.Trace.Events))
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			return fmt.Sprintf("trace[%d] %+v != %+v", i, a.Trace.Events[i], b.Trace.Events[i])
		}
	}
	return ""
}

// TestFastForwardDifferential is the fuzz-style differential oracle: for
// every inter-node technique it draws randomized cells (topology ×
// perturbation × workload, seeded and reproducible) and runs each one with
// the analytic fast-forward off and on. The traces record events in host
// execution order, so equality here pins the fast-forward to trace-level
// byte identity, not just identical aggregates (DESIGN.md §11).
func TestFastForwardDifferential(t *testing.T) {
	prev := FastForwardEnabled()
	defer SetFastForward(prev)
	rng := rand.New(rand.NewSource(20260807))
	perTech := 3
	if testing.Short() {
		perTech = 1
	}
	for _, inter := range allInter {
		for c := 0; c < perTech; c++ {
			cfg := fuzzConfig(rng, inter)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%v case %d: invalid fuzz config: %v", inter, c, err)
			}
			SetFastForward(false)
			lit, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v case %d (literal): %v", inter, c, err)
			}
			SetFastForward(true)
			ff, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v case %d (fast-forward): %v", inter, c, err)
			}
			if d := diffResults(lit, ff); d != "" {
				t.Errorf("%v case %d (%v/%v %dn×%dw %v seed=%d): fast-forward diverges: %s",
					inter, c, cfg.Inter, cfg.Intra, cfg.Cluster.Nodes,
					cfg.WorkersPerNode, cfg.Approach, cfg.Seed, d)
			}
		}
	}
}

// TestFastForwardEventCensus checks the fast-forward's actual effect — the
// engine event count — on bench-representative cells. Unlike wall clock,
// the census is deterministic per configuration: fast-forward on must never
// cost more engine events than the literal protocol, and on the contended
// cells it must save a measurable fraction.
func TestFastForwardEventCensus(t *testing.T) {
	prev := FastForwardEnabled()
	defer SetFastForward(prev)
	for _, tc := range []struct {
		inter, intra dls.Technique
		spec         string
	}{
		{dls.GSS, dls.GSS, "uniform:n=65536"},
		{dls.GSS, dls.STATIC, "uniform:n=4096"},
		{dls.STATIC, dls.SS, "uniform:n=16384"},
		{dls.GSS, dls.SS, "uniform:n=16384"},
		{dls.FAC2, dls.GSS, "uniform:n=16384"},
	} {
		prof, err := workload.ParseSpec(tc.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Cluster:        cluster.MiniHPC(8),
			WorkersPerNode: 16,
			Inter:          tc.inter,
			Intra:          tc.intra,
			Workload:       prof,
			Approach:       MPIMPI,
			Seed:           1,
		}
		var pushes [2]uint64
		for i, ff := range []bool{false, true} {
			SetFastForward(ff)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			pushes[i] = lastRunPushes.Load()
		}
		if pushes[1] > pushes[0] {
			t.Errorf("%s/%s %s: fast-forward costs events: off=%d on=%d",
				tc.inter, tc.intra, tc.spec, pushes[0], pushes[1])
		}
		t.Logf("%s/%s %s: off=%d on=%d saved=%.1f%%", tc.inter, tc.intra, tc.spec,
			pushes[0], pushes[1], 100*(1-float64(pushes[1])/float64(pushes[0])))
	}
}

// TestFastForwardAB is the wall-clock measurement harness behind
// EXPERIMENTS.md's fast-forward table: interleaved off/on rounds of the
// bench-row cells, reporting per-cell medians. Interleaving in one process
// is the only A/B this host supports — separate benchmark runs drift ±30%
// with neighbour load. Log-only; skipped under -short.
func TestFastForwardAB(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement harness")
	}
	prev := FastForwardEnabled()
	defer SetFastForward(prev)
	for _, nodes := range []int{1, 8, 16} {
		for _, tc := range []struct {
			inter, intra dls.Technique
			spec         string
		}{
			{dls.GSS, dls.GSS, "uniform:n=65536"},
			{dls.GSS, dls.SS, "uniform:n=16384"},
			{dls.STATIC, dls.STATIC, "uniform:n=65536"},
		} {
			prof, err := workload.ParseSpec(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Cluster:        cluster.MiniHPC(nodes),
				WorkersPerNode: 16,
				Inter:          tc.inter,
				Intra:          tc.intra,
				Workload:       prof,
				Approach:       MPIMPI,
				Seed:           1,
			}
			const rounds = 9
			var offs, ons []float64
			for i := 0; i < rounds; i++ {
				for _, ff := range []bool{false, true} {
					SetFastForward(ff)
					t0 := time.Now()
					if _, err := Run(cfg); err != nil {
						t.Fatal(err)
					}
					d := time.Since(t0).Seconds() * 1e3
					if ff {
						ons = append(ons, d)
					} else {
						offs = append(offs, d)
					}
				}
			}
			sort.Float64s(offs)
			sort.Float64s(ons)
			mOff, mOn := offs[rounds/2], ons[rounds/2]
			t.Logf("%2dn %s/%s: off=%.2fms on=%.2fms speedup=%.2fx",
				nodes, tc.inter, tc.intra, mOff, mOn, mOff/mOn)
		}
	}
}
