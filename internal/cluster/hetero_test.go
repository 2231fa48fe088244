package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestNodeCoresAccessors(t *testing.T) {
	c := MiniHPC(4)
	c.NodeCores = []int{16, 64}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	wantCores := []int{16, 64, 16, 64} // tiled
	for n, want := range wantCores {
		if got := c.Cores(n); got != want {
			t.Errorf("Cores(%d) = %d, want %d", n, got, want)
		}
	}
	if got := c.MaxCores(); got != 64 {
		t.Errorf("MaxCores = %d, want 64", got)
	}
	homo := MiniHPC(4)
	if homo.Cores(0)+homo.Cores(1)+homo.Cores(2)+homo.Cores(3) != 64 || homo.MaxCores() != 16 || homo.Cores(3) != 16 {
		t.Error("homogeneous accessors changed")
	}
}

func TestNodeCoresValidation(t *testing.T) {
	c := MiniHPC(2)
	c.NodeCores = []int{16, 0}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted zero core count")
	}
	c.NodeCores = []int{16, 16, 16}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted more NodeCores entries than nodes")
	}
}

// stubPerturber scales node 1 by 3× and reports no extra noise.
type stubPerturber struct{ calls int }

func (s *stubPerturber) Factor(node int, now sim.Time) float64 {
	s.calls++
	if node == 1 {
		return 3
	}
	return 1
}
func (s *stubPerturber) NoiseCV() float64 { return 0 }

func TestExecTimePerturbHook(t *testing.T) {
	c := MiniHPC(2)
	c.NodeSpeed = []float64{1, 0.5}
	st := &stubPerturber{}
	c.Perturb = st
	rng := rand.New(rand.NewSource(1))
	if got := c.ExecTime(0, 1, 0, rng); got != 1 {
		t.Errorf("node 0 ExecTime = %v, want 1 (speed 1, factor 1)", got)
	}
	if got := c.ExecTime(1, 1, 0, rng); got != 6 {
		t.Errorf("node 1 ExecTime = %v, want 6 (speed 0.5 ×2, factor ×3)", got)
	}
	if st.calls != 2 {
		t.Errorf("perturber consulted %d times, want 2", st.calls)
	}
	// Without perturber and noise, ExecTime must be the exact division.
	c.Perturb = nil
	if got := c.ExecTime(1, 1, 123, nil); got != 2 {
		t.Errorf("smooth ExecTime = %v, want 2", got)
	}
}
