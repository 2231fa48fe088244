package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/workload"
)

// TestArenaReuseByteIdentical is the pooled-arena oracle: the same cell run
// through a fresh engine/world and through a pooled context — dirtied in
// between by cells of different shapes, approaches and seeds — must produce
// byte-identical results, including the full event trace. This is the
// contract DESIGN.md §8 rests on: Engine.Reset/World.Reset restore the exact
// NewEngine/NewWorld starting state.
func TestArenaReuseByteIdentical(t *testing.T) {
	prof := workload.Uniform(1536, 15e-6, 45e-6, 11)
	cell := Config{
		Cluster:        cluster.MiniHPC(2),
		WorkersPerNode: 8,
		Inter:          dls.GSS,
		Intra:          dls.SS, // lock contention: exercises ports, pollers, wake chains
		Workload:       prof,
		Approach:       MPIMPI,
		Seed:           3,
		CollectTrace:   true,
	}
	dirty := []Config{
		{ // different machine shape and approach
			Cluster: cluster.MiniHPCHetero(3, 1.0, 0.6), WorkersPerNode: 4,
			Inter: dls.FAC2, Intra: dls.STATIC,
			Workload: workload.Constant(700, 20e-6), Approach: MPIOpenMP, Seed: 9,
		},
		{ // different seed and noise on the same executor
			Cluster: withNoiseCV(cluster.MiniHPC(4), 0.2), WorkersPerNode: 16,
			Inter: dls.TSS, Intra: dls.GSS,
			Workload: workload.Exponential(2048, 40e-6, 5), Approach: MPIMPI, Seed: 17,
		},
	}

	harnessPool = sync.Pool{} // guarantee the first run builds a fresh arena
	fresh := mustRun(t, cell)
	for _, d := range dirty {
		mustRun(t, d)
	}
	pooled := mustRun(t, cell) // reuses the arena the dirty cells retired
	pooled2 := mustRun(t, cell)

	for _, got := range []*Result{pooled, pooled2} {
		if got.ParallelTime != fresh.ParallelTime {
			t.Fatalf("pooled ParallelTime %v != fresh %v", got.ParallelTime, fresh.ParallelTime)
		}
		if !reflect.DeepEqual(got.WorkerFinish, fresh.WorkerFinish) ||
			!reflect.DeepEqual(got.WorkerCompute, fresh.WorkerCompute) ||
			!reflect.DeepEqual(got.NodeFinish, fresh.NodeFinish) {
			t.Fatal("pooled per-worker results differ from fresh run")
		}
		if got.GlobalChunks != fresh.GlobalChunks || got.LocalChunks != fresh.LocalChunks ||
			got.LockAttempts != fresh.LockAttempts || got.LockAcquisitions != fresh.LockAcquisitions {
			t.Fatalf("pooled counters differ: %+v vs fresh %+v", got, fresh)
		}
		if !reflect.DeepEqual(got.Trace.Events, fresh.Trace.Events) {
			t.Fatal("pooled event trace differs from fresh run")
		}
	}
}

func withNoiseCV(c cluster.Config, cv float64) cluster.Config {
	c.NoiseCV = cv
	return c
}

// TestPooledSweepLeaksNoGoroutines is the goroutine-leak guard for the
// arena pool: every executor's ranks and threads are continuation machines
// run on the caller's goroutine, so a pooled sweep over all three
// approaches must leave the host goroutine count where it found it.
func TestPooledSweepLeaksNoGoroutines(t *testing.T) {
	prof := workload.Uniform(1024, 15e-6, 40e-6, 7)
	cfgs := []Config{
		{Cluster: cluster.MiniHPC(4), WorkersPerNode: 16, Inter: dls.GSS, Intra: dls.SS,
			Workload: prof, Approach: MPIMPI, Seed: 1},
		{Cluster: cluster.MiniHPC(2), WorkersPerNode: 8, Inter: dls.FAC2, Intra: dls.GSS,
			Workload: prof, Approach: MPIOpenMP, Seed: 2},
		{Cluster: cluster.MiniHPC(2), WorkersPerNode: 8, Inter: dls.GSS, Intra: dls.STATIC,
			Workload: prof, Approach: MPIOpenMPNoWait, Seed: 3},
	}
	run := func() {
		for _, cfg := range cfgs {
			if _, err := RunSummary(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the pool and any lazy runtime machinery
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		run()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("pooled sweep leaked goroutines: %d before, %d after", before, after)
	}
}
