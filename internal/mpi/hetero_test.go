package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestNewWorldHeterogeneousPlacement checks the per-node rank placement on
// a mixed machine: ranksPerNode acts as a per-node cap, ranks number
// contiguously by node, and the node communicators split accordingly.
func TestNewWorldHeterogeneousPlacement(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(3)
	cfg.NodeCores = []int{16, 8, 4}
	w, err := NewWorld(eng, &cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 28 {
		t.Fatalf("Size = %d, want 16+8+4 = 28", w.Size())
	}
	wantRanks := []int{16, 8, 4}
	wantOff := []int{0, 16, 24}
	for n := range wantRanks {
		if w.nodeRanks[n] != wantRanks[n] || w.nodeOff[n] != wantOff[n] {
			t.Errorf("node %d: ranks=%d off=%d, want %d/%d",
				n, w.nodeRanks[n], w.nodeOff[n], wantRanks[n], wantOff[n])
		}
	}
	for r := 0; r < w.Size(); r++ {
		rk := w.Rank(r)
		wantNode := 0
		switch {
		case r >= 24:
			wantNode = 2
		case r >= 16:
			wantNode = 1
		}
		if rk.Node() != wantNode {
			t.Errorf("rank %d on node %d, want %d", r, rk.Node(), wantNode)
		}
		if rk.Core() != r-wantOff[rk.Node()] {
			t.Errorf("rank %d core %d, want %d", r, rk.Core(), r-wantOff[rk.Node()])
		}
	}
	// Node communicators must match the per-node rank sets.
	ran := false
	if err := w.Launch(func(r *Rank) {
		nc := w.SplitTypeShared(r)
		if nc.Size() != wantRanks[r.Node()] {
			t.Errorf("rank %d node comm size %d, want %d", r.Rank(), nc.Size(), wantRanks[r.Node()])
		}
		if nc.RankOf(r) != r.Core() {
			t.Errorf("rank %d node rank %d, want core %d", r.Rank(), nc.RankOf(r), r.Core())
		}
		ran = true
		r.Retire()
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("no rank body executed")
	}
}

func TestNewWorldCapAndValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(2)
	cfg.NodeCores = []int{16, 64}
	// 64 exceeds node 0's cores but not MaxCores: allowed, capped to 16+64.
	w, err := NewWorld(eng, &cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 80 || w.nodeRanks[0] != 16 || w.nodeRanks[1] != 64 {
		t.Fatalf("cap placement wrong: size=%d ranks=%d/%d", w.Size(), w.nodeRanks[0], w.nodeRanks[1])
	}
	if _, err := NewWorld(eng, &cfg, 65); err == nil {
		t.Error("NewWorld accepted ranksPerNode > MaxCores")
	}
}
