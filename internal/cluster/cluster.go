// Package cluster describes the simulated distributed-memory machine:
// topology (nodes × cores), relative core speeds, and the cost parameters of
// the network and memory subsystems. It is a pure description; the MPI and
// OpenMP runtime models consume it.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// NetParams holds inter-node communication costs.
type NetParams struct {
	// Latency is the one-way MPI-level latency of a small message.
	Latency sim.Time
	// PortService is the extra service time a remote RMA operation costs at
	// the target node's port, and the per-hop cost of a multi-node
	// collective on top of Latency. A passive-target RMA atomic on a remote
	// window costs 2×Latency + port service of (SharedWinOp + PortService),
	// ≈3 µs on the miniHPC preset.
	PortService sim.Time
}

// MemParams holds intra-node (shared-memory) costs.
type MemParams struct {
	// LocalAtomic is an uncontended hardware atomic (the OpenMP runtime's
	// dynamic-schedule chunk grab).
	LocalAtomic sim.Time
	// SharedWinOp is the service time of one MPI RMA operation on an
	// MPI-3 shared-memory window. MPI shared windows go through the RMA
	// machinery, so this is markedly more expensive than LocalAtomic.
	SharedWinOp sim.Time
	// LockAttempt is the service time one lock-attempt consumes at the
	// window's host port under the lock-polling protocol (Zhao et al.).
	LockAttempt sim.Time
	// PollInterval is the back-off between failed lock attempts.
	PollInterval sim.Time
	// WinSync is the cost of MPI_Win_sync (memory barrier) on a shared window.
	WinSync sim.Time
}

// Perturber injects time-dependent execution-time perturbations (transient
// slowdowns, background load, extra noise). internal/perturb provides the
// implementation; the indirection keeps this package a pure description.
// Factor returns the multiplier (≥ some small positive value) for work
// starting on node at virtual time now; NoiseCV adds white noise on top of
// the cluster's own NoiseCV.
type Perturber interface {
	Factor(node int, now sim.Time) float64
	NoiseCV() float64
}

// Config describes a machine.
type Config struct {
	Name         string
	Nodes        int
	CoresPerNode int
	// NodeCores holds per-node core counts for heterogeneous machines (e.g.
	// miniHPC's 16-core Xeon vs. 64-core KNL partitions). A nil slice means
	// every node has CoresPerNode cores; otherwise the pattern is tiled
	// across nodes and CoresPerNode acts as the documentation default.
	NodeCores []int
	// NodeSpeed holds per-node relative speeds (1.0 = reference core). A nil
	// slice means homogeneous. Iteration execution time divides by speed.
	NodeSpeed []float64
	// NoiseCV, when positive, applies multiplicative noise with the given
	// coefficient of variation to each executed chunk, modelling systemic
	// variability (OS jitter). Zero keeps runs perfectly smooth.
	NoiseCV float64
	// Perturb, when non-nil, injects the scenario perturbations of
	// internal/perturb into every execution. Nil keeps the machine smooth
	// and the paper-default goldens byte-identical.
	Perturb Perturber
	Net     NetParams
	Mem     MemParams
}

// Validate checks structural invariants. Node speeds and NoiseCV must be
// finite: NaN slips through ordinary range checks and poisons every virtual
// time computed from it.
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return errors.New("cluster: Nodes must be positive")
	}
	if c.CoresPerNode <= 0 {
		return errors.New("cluster: CoresPerNode must be positive")
	}
	if c.NodeSpeed != nil && len(c.NodeSpeed) != c.Nodes {
		return fmt.Errorf("cluster: NodeSpeed has %d entries for %d nodes", len(c.NodeSpeed), c.Nodes)
	}
	for i, s := range c.NodeSpeed {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("cluster: NodeSpeed[%d] = %v, must be positive and finite", i, s)
		}
	}
	if len(c.NodeCores) > c.Nodes {
		return fmt.Errorf("cluster: NodeCores has %d entries for %d nodes", len(c.NodeCores), c.Nodes)
	}
	for i, n := range c.NodeCores {
		if n <= 0 {
			return fmt.Errorf("cluster: NodeCores[%d] = %d, must be positive", i, n)
		}
	}
	if !(c.NoiseCV >= 0) || math.IsInf(c.NoiseCV, 1) {
		return fmt.Errorf("cluster: NoiseCV = %v, must be non-negative and finite", c.NoiseCV)
	}
	if c.Net.Latency < 0 || c.Mem.PollInterval <= 0 {
		return errors.New("cluster: latency must be >= 0 and poll interval > 0")
	}
	return nil
}

// TotalCores reports the machine's core count (summing NodeCores when the
// machine is heterogeneous).
func (c *Config) TotalCores() int {
	if len(c.NodeCores) == 0 {
		return c.Nodes * c.CoresPerNode
	}
	total := 0
	for n := 0; n < c.Nodes; n++ {
		total += c.Cores(n)
	}
	return total
}

// Cores returns node n's core count (the tiled NodeCores pattern, or the
// homogeneous CoresPerNode).
func (c *Config) Cores(node int) int {
	if len(c.NodeCores) == 0 {
		return c.CoresPerNode
	}
	return c.NodeCores[node%len(c.NodeCores)]
}

// MaxCores returns the largest per-node core count.
func (c *Config) MaxCores() int {
	m := 0
	for n := 0; n < c.Nodes; n++ {
		if k := c.Cores(n); k > m {
			m = k
		}
	}
	return m
}

// Speed returns node n's relative speed.
func (c *Config) Speed(node int) float64 {
	if c.NodeSpeed == nil {
		return 1
	}
	return c.NodeSpeed[node]
}

// ExecTime converts a reference-core duration into node-local execution
// time starting at virtual time now: the duration divides by the node's
// relative speed, is stretched by the perturbation model's factor (sampled
// at the chunk's start time), and — when NoiseCV or the perturber's noise
// is set — picks up multiplicative noise drawn from rng (truncated so
// durations stay positive). With no perturber and NoiseCV = 0 the result
// is exactly ref/speed, preserving the smooth-machine goldens bit for bit.
func (c *Config) ExecTime(node int, ref, now sim.Time, rng *rand.Rand) sim.Time {
	d := ref / sim.Time(c.Speed(node))
	if c.Perturb != nil {
		if f := c.Perturb.Factor(node, now); f != 1 {
			d *= sim.Time(f)
		}
	}
	d = applyNoise(d, c.NoiseCV, rng)
	if c.Perturb != nil {
		d = applyNoise(d, c.Perturb.NoiseCV(), rng)
	}
	return d
}

// applyNoise multiplies d by a 1+cv·N(0,1) factor floored at 0.05.
func applyNoise(d sim.Time, cv float64, rng *rand.Rand) sim.Time {
	if cv <= 0 || rng == nil {
		return d
	}
	f := 1 + cv*rng.NormFloat64()
	if f < 0.05 {
		f = 0.05
	}
	return d * sim.Time(f)
}

// WithNodes returns a copy of the config resized to n nodes, keeping all
// cost parameters and tiling any per-node speed/core patterns. Used by
// scaling sweeps.
func (c Config) WithNodes(n int) Config {
	c.Nodes = n
	if c.NodeSpeed != nil {
		sp := make([]float64, n)
		for i := range sp {
			sp[i] = c.NodeSpeed[i%len(c.NodeSpeed)]
		}
		c.NodeSpeed = sp
	}
	if c.NodeCores != nil {
		nc := make([]int, n)
		for i := range nc {
			nc[i] = c.NodeCores[i%len(c.NodeCores)]
		}
		c.NodeCores = nc
	}
	return c
}

// MiniHPC models the paper's target system: dual-socket Intel Xeon E5-2640
// nodes (16 of the 20 cores are used per node, as in the paper's runs),
// Intel Omni-Path (100 Gbit/s, ~100 ns link latency; ~1 µs MPI small-message
// latency once the software stack is included).
//
// The RMA cost constants are calibrated against published MPI shared-memory
// microbenchmarks: a shared-window RMA op costs ~0.4 µs of port service, a
// lock attempt ~1.2 µs (it is a full RMA round through the progress engine),
// the polling retry interval is ~6 µs, and MPI_Win_sync ~0.25 µs. DESIGN.md
// §3 explains why only these relative magnitudes matter for the paper's
// observations.
func MiniHPC(nodes int) Config {
	return Config{
		Name:         "miniHPC",
		Nodes:        nodes,
		CoresPerNode: 16,
		Net: NetParams{
			Latency:     1.2 * sim.Microsecond,
			PortService: 0.25 * sim.Microsecond,
		},
		Mem: MemParams{
			LocalAtomic:  0.06 * sim.Microsecond,
			SharedWinOp:  0.4 * sim.Microsecond,
			LockAttempt:  1.2 * sim.Microsecond,
			PollInterval: 6 * sim.Microsecond,
			WinSync:      0.25 * sim.Microsecond,
		},
	}
}

// MiniHPCKNL models the remaining four miniHPC nodes: standalone Intel Xeon
// Phi 7210 manycore processors (64 cores, lower per-core speed — roughly
// 0.45× a Xeon core at scalar work — and slower shared-memory operations).
// The paper dedicates only the 16 Xeon nodes to its evaluation; this preset
// supports the manycore what-if experiments.
func MiniHPCKNL(nodes int) Config {
	c := MiniHPC(nodes)
	c.Name = "miniHPC-KNL"
	c.CoresPerNode = 64
	c.NodeSpeed = make([]float64, nodes)
	for i := range c.NodeSpeed {
		c.NodeSpeed[i] = 0.45
	}
	// KNL's MCDRAM/mesh makes atomics and memory ops slower per-core.
	c.Mem.LocalAtomic *= 2
	c.Mem.SharedWinOp *= 2
	c.Mem.LockAttempt *= 2
	return c
}

// MiniHPCMixed models a mixed miniHPC allocation alternating Xeon nodes
// (16 cores, speed 1.0) with KNL nodes (64 cores, speed 0.45) — the
// machine-level heterogeneity scenario the paper's homogeneous evaluation
// leaves open. The pattern starts with a Xeon node and tiles.
func MiniHPCMixed(nodes int) Config {
	c := MiniHPC(nodes)
	c.Name = "miniHPC-mixed"
	c.NodeCores = make([]int, nodes)
	c.NodeSpeed = make([]float64, nodes)
	for i := 0; i < nodes; i++ {
		if i%2 == 0 {
			c.NodeCores[i] = 16
			c.NodeSpeed[i] = 1.0
		} else {
			c.NodeCores[i] = 64
			c.NodeSpeed[i] = 0.45
		}
	}
	return c
}

// MiniHPCHetero returns the miniHPC model with a repeating pattern of node
// speeds, for experiments with systemic heterogeneity (e.g. the AWF
// extension benches).
func MiniHPCHetero(nodes int, speeds ...float64) Config {
	c := MiniHPC(nodes)
	if len(speeds) == 0 {
		speeds = []float64{1.0, 0.8}
	}
	c.Name = "miniHPC-hetero"
	c.NodeSpeed = make([]float64, nodes)
	for i := range c.NodeSpeed {
		c.NodeSpeed[i] = speeds[i%len(speeds)]
	}
	return c
}
