// Package perturb models execution-time perturbations of the simulated
// machine as deterministic seeded processes: multiplicative system noise
// (OS jitter), transient slowdowns (a node temporarily loses a fraction of
// its speed — thermal throttling, co-scheduled jobs, degraded links), and
// constant per-node background load.
//
// The DLS literature ("OpenMP Loop Scheduling Revisited", arXiv:1809.03188;
// the distributed chunk-calculation follow-up, arXiv:2101.07050) stresses
// that technique rankings flip once per-core speeds vary over time; this
// package supplies exactly those scenario axes while keeping runs
// reproducible.
//
// Determinism and replay: every node owns an independent random stream
// seeded from (Seed, node), and transient slowdown intervals are drawn
// lazily from that stream alone. The interval set a node experiences is
// therefore a pure function of (Config, node) — independent of executor
// interleaving, host parallelism, and which other nodes are queried — so
// two runs with the same Config replay byte-identical perturbations even
// across different scheduling techniques. Only the white-noise factor
// (NoiseCV) is drawn from the engine's run-level RNG, which is itself
// deterministic per seed.
package perturb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Config describes the perturbation scenario. The zero value disables every
// perturbation and reproduces the smooth machine of the paper's runs.
type Config struct {
	// NoiseCV applies multiplicative white noise with this coefficient of
	// variation to each executed chunk (drawn from the engine RNG, truncated
	// so durations stay positive).
	NoiseCV float64 `json:"noise_cv,omitempty"`

	// SlowdownRate is the expected number of transient slowdown events per
	// simulated second per node (Poisson arrivals). 0 disables slowdowns.
	SlowdownRate float64 `json:"slowdown_rate,omitempty"`
	// SlowdownFactor multiplies execution time while a slowdown is active
	// (must be > 1 when SlowdownRate > 0; 2 halves the node's speed).
	SlowdownFactor float64 `json:"slowdown_factor,omitempty"`
	// SlowdownDuration is the mean duration of one slowdown (exponentially
	// distributed; must be > 0 when SlowdownRate > 0).
	SlowdownDuration sim.Time `json:"slowdown_duration,omitempty"`

	// BackgroundLoad gives each node a constant stolen-CPU fraction in
	// [0, 1): effective node speed is multiplied by (1 − load). The pattern
	// is tiled across nodes; nil means no background load.
	BackgroundLoad []float64 `json:"background_load,omitempty"`

	// Seed drives the per-node slowdown streams. 0 lets the caller
	// substitute the run seed.
	Seed int64 `json:"seed,omitempty"`
}

// Enabled reports whether any perturbation axis is active.
func (c Config) Enabled() bool {
	if c.NoiseCV > 0 || c.SlowdownRate > 0 {
		return true
	}
	for _, l := range c.BackgroundLoad {
		if l != 0 {
			return true
		}
	}
	return false
}

// Validate checks the scenario parameters. Every value must be finite:
// NaN slips through ordinary range checks.
func (c Config) Validate() error {
	if !finite(c.NoiseCV) || c.NoiseCV < 0 {
		return fmt.Errorf("perturb: NoiseCV = %v, must be non-negative and finite", c.NoiseCV)
	}
	if !finite(c.SlowdownRate) || c.SlowdownRate < 0 {
		return fmt.Errorf("perturb: SlowdownRate = %v, must be non-negative and finite", c.SlowdownRate)
	}
	if !finite(c.SlowdownFactor) {
		return fmt.Errorf("perturb: SlowdownFactor = %v, must be finite", c.SlowdownFactor)
	}
	if !finite(float64(c.SlowdownDuration)) {
		return fmt.Errorf("perturb: SlowdownDuration = %v, must be finite", c.SlowdownDuration)
	}
	if c.SlowdownRate > 0 {
		if c.SlowdownFactor <= 1 {
			return fmt.Errorf("perturb: SlowdownFactor %g must be > 1 when slowdowns are enabled", c.SlowdownFactor)
		}
		if c.SlowdownDuration <= 0 {
			return errors.New("perturb: SlowdownDuration must be positive when slowdowns are enabled")
		}
	}
	for i, l := range c.BackgroundLoad {
		if !(l >= 0 && l < 1) {
			return fmt.Errorf("perturb: BackgroundLoad[%d] = %g out of [0, 1)", i, l)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// interval is one transient slowdown window [start, end).
type interval struct {
	start, end sim.Time
}

// sharedStream is the process-wide slowdown interval source of one
// (seed, node, rate, duration) tuple. The interval sequence is a pure
// function of that key — DESIGN.md §6's replay contract — so every cell of
// a sweep that runs the same scenario reads one shared, append-only
// history instead of rebuilding an RNG stream per cell. Readers take an
// atomic snapshot of the published prefix; extension happens under the
// mutex and re-publishes.
type sharedStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	clock sim.Time // next arrival is drawn relative to this point
	ivs   atomic.Pointer[[]interval]
}

// streamKey identifies a slowdown stream; every parameter that shapes the
// drawn sequence participates.
type streamKey struct {
	seed     int64
	node     int
	rate     float64
	duration sim.Time
}

var streamCache sync.Map // streamKey -> *sharedStream

// streamCacheMax bounds the process-wide stream memo. Sweeps replay a few
// scenarios (one key per node each), but a daemon sees client-controlled
// seeds; beyond the bound new keys get private streams — identical
// interval sequences (pure functions of the key), just unshared.
const streamCacheMax = 1 << 14

var streamCacheLen atomic.Int64

func sharedStreamFor(key streamKey) *sharedStream {
	if v, ok := streamCache.Load(key); ok {
		return v.(*sharedStream)
	}
	s := &sharedStream{rng: rand.New(rand.NewSource(nodeSeed(key.seed, key.node)))}
	empty := []interval(nil)
	s.ivs.Store(&empty)
	if streamCacheLen.Load() >= streamCacheMax {
		return s // memo full: private stream (see streamCacheMax)
	}
	if v, loaded := streamCache.LoadOrStore(key, s); loaded {
		return v.(*sharedStream)
	}
	streamCacheLen.Add(1)
	return s
}

// extendTo draws intervals until the stream covers t and returns the
// published history. Gaps are exponential(1/rate) between consecutive
// windows and lengths exponential(duration), so windows never overlap and
// the long-run active fraction is rate·duration / (1 + rate·duration).
func (s *sharedStream) extendTo(t sim.Time, rate float64, duration sim.Time) []interval {
	ivs := *s.ivs.Load()
	if s.clockCovered(ivs, t) {
		return ivs
	}
	s.mu.Lock()
	ivs = *s.ivs.Load()
	for s.clock <= t {
		gap := sim.Time(s.rng.ExpFloat64() / rate)
		dur := sim.Time(s.rng.ExpFloat64()) * duration
		iv := interval{start: s.clock + gap, end: s.clock + gap + dur}
		ivs = append(ivs, iv)
		s.clock = iv.end
	}
	s.ivs.Store(&ivs)
	s.mu.Unlock()
	return ivs
}

// clockCovered reports whether the published history already extends past
// t (reading clock requires either the lock or this conservative check on
// the immutable snapshot).
func (s *sharedStream) clockCovered(ivs []interval, t sim.Time) bool {
	return len(ivs) > 0 && ivs[len(ivs)-1].end > t
}

// Model is the instantiated perturbation scenario for a cluster of a given
// size. It implements the cluster package's perturber hook. Models are
// cheap per-cell views: the interval streams behind them are shared
// process-wide (see sharedStream), so instantiating one per simulation
// allocates no RNG state in the per-chunk path.
type Model struct {
	cfg     Config
	bgSpeed []float64 // per-node 1/(1−load) execution-time multiplier
	streams []*sharedStream
}

// New instantiates cfg for a cluster of nodes nodes. A nil model (from a
// disabled config) is a valid "no perturbation" value for consumers.
func New(cfg Config, nodes int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("perturb: nodes = %d, must be positive", nodes)
	}
	m := &Model{cfg: cfg}
	if len(cfg.BackgroundLoad) > 0 {
		m.bgSpeed = make([]float64, nodes)
		for n := range m.bgSpeed {
			m.bgSpeed[n] = 1 / (1 - cfg.BackgroundLoad[n%len(cfg.BackgroundLoad)])
		}
	}
	if cfg.SlowdownRate > 0 {
		m.streams = make([]*sharedStream, nodes)
		for n := range m.streams {
			m.streams[n] = sharedStreamFor(streamKey{
				seed: cfg.Seed, node: n,
				rate: cfg.SlowdownRate, duration: cfg.SlowdownDuration,
			})
		}
	}
	return m, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config, nodes int) *Model {
	m, err := New(cfg, nodes)
	if err != nil {
		panic(err)
	}
	return m
}

// nodeSeed mixes the scenario seed with a node index (splitmix64 finalizer)
// so per-node streams are decorrelated even for adjacent seeds.
func nodeSeed(seed int64, node int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(node+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// NoiseCV reports the white-noise coefficient of variation.
func (m *Model) NoiseCV() float64 {
	if m == nil {
		return 0
	}
	return m.cfg.NoiseCV
}

// Factor returns the execution-time multiplier for work starting on node at
// virtual time now (≥ 1: background load and any active transient slowdown;
// white noise is handled separately by the cluster's ExecTime). The factor
// is sampled at the chunk's start time and applied to the whole chunk.
func (m *Model) Factor(node int, now sim.Time) float64 {
	if m == nil {
		return 1
	}
	f := 1.0
	if m.bgSpeed != nil {
		f = m.bgSpeed[node%len(m.bgSpeed)]
	}
	if m.streams != nil && m.inSlowdown(node, now) {
		f *= m.cfg.SlowdownFactor
	}
	return f
}

// inSlowdown reports whether node is inside a transient slowdown at t,
// extending the node's shared interval stream as far as t on demand.
// Lookup is a binary search over the immutable published history —
// allocation-free and O(log windows) regardless of how far queries jump
// around in time.
func (m *Model) inSlowdown(node int, t sim.Time) bool {
	s := m.streams[node%len(m.streams)]
	ivs := s.extendTo(t, m.cfg.SlowdownRate, m.cfg.SlowdownDuration)
	// First window ending after t; t is inside iff that window started.
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ivs) && ivs[lo].start <= t
}

// Intervals returns a copy of node's slowdown windows generated so far
// (diagnostics and tests). Because streams are shared process-wide, "so
// far" covers every model with the same (Seed, rate, duration) — the
// sequence itself is identical for all of them by the replay contract.
func (m *Model) Intervals(node int) [][2]sim.Time {
	if m == nil || m.streams == nil {
		return nil
	}
	ivs := *m.streams[node%len(m.streams)].ivs.Load()
	out := make([][2]sim.Time, len(ivs))
	for i, iv := range ivs {
		out[i] = [2]sim.Time{iv.start, iv.end}
	}
	return out
}

// String summarizes the scenario for tables and logs.
func (c Config) String() string {
	if !c.Enabled() {
		return "none"
	}
	parts := []string{}
	if c.NoiseCV > 0 {
		parts = append(parts, fmt.Sprintf("noise cv=%.2g", c.NoiseCV))
	}
	if c.SlowdownRate > 0 {
		parts = append(parts, fmt.Sprintf("slowdowns %.3g/s ×%.2g for %.3gs",
			c.SlowdownRate, c.SlowdownFactor, float64(c.SlowdownDuration)))
	}
	if len(c.BackgroundLoad) > 0 {
		parts = append(parts, fmt.Sprintf("bg load %v", c.BackgroundLoad))
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += ", " + p
	}
	return out
}
