package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// specKey identifies one ParseSpec construction; the seed participates
// because the random synthetic kinds draw from it.
type specKey struct {
	spec string
	seed int64
}

var specCache sync.Map // specKey -> *Profile

// specCacheMax bounds the memo's entry count. CLI sweeps resolve a
// handful of distinct (spec, seed) pairs, but a long-running daemon sees
// client-controlled keys; beyond the bound ParseSpec still works, it just
// stops retaining (profiles are pure functions of the key, so skipping
// the memo changes nothing but speed).
const specCacheMax = 4096

var specCacheLen atomic.Int64

// ParseSpec builds a workload from a compact scenario string of the form
// "kind" or "kind:key=val,key=val". It is the CLI/Config surface of the
// synthetic generators; the two paper kernels are reachable too, so every
// sweep axis accepts one flag.
//
// Kinds and their keys (all costs in seconds; seed comes from the caller):
//
//	constant     n, mean
//	uniform      n, lo, hi            (default lo=mean/2, hi=3·mean/2)
//	gaussian     n, mean, sigma | cv  (default cv=0.3)
//	exponential  n, mean
//	gamma        n, shape, scale      (default shape=0.5, scale=mean/shape)
//	bimodal      n, lo, hi, frac      (cold mean lo, hot mean hi; default
//	                                   lo=mean/2, hi=4·mean, frac=0.2)
//	increasing   n, lo, hi            (linear ramp lo → hi)
//	decreasing   n, lo, hi            (linear ramp hi → lo)
//	mandelbrot   scale                (the paper kernel at 1/scale size)
//	psia         scale
//
// Shared defaults: n=4096, mean=100e-6, scale=8.
//
// Successful parses are memoized process-wide by (spec, seed): profiles are
// immutable, and sweep drivers resolve the same spec in every cell.
func ParseSpec(spec string, seed int64) (*Profile, error) {
	key := specKey{spec: spec, seed: seed}
	if v, ok := specCache.Load(key); ok {
		return v.(*Profile), nil
	}
	p, err := parseSpec(spec, seed)
	if err != nil {
		return nil, err
	}
	if specCacheLen.Load() >= specCacheMax {
		return p, nil // memo full: serve unretained (see specCacheMax)
	}
	if v, loaded := specCache.LoadOrStore(key, p); loaded {
		return v.(*Profile), nil
	}
	specCacheLen.Add(1)
	return p, nil
}

// specParams parses a spec's head: the kind token and its key=val
// parameter map. Shared by parseSpec and SpecN.
func specParams(spec string) (string, map[string]float64, error) {
	kind, rest, _ := strings.Cut(strings.TrimSpace(spec), ":")
	kind = strings.ToLower(strings.TrimSpace(kind))
	if kind == "" {
		return "", nil, fmt.Errorf("workload: empty spec")
	}
	kv := map[string]float64{}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return "", nil, fmt.Errorf("workload: spec %q: bad parameter %q (want key=val)", spec, part)
			}
			key := strings.ToLower(strings.TrimSpace(k))
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return "", nil, fmt.Errorf("workload: spec %q: parameter %q: %v", spec, part, err)
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return "", nil, fmt.Errorf("workload: spec %q: parameter %s = %v, must be finite", spec, key, f)
			}
			kv[key] = f
		}
	}
	return kind, kv, nil
}

// SpecN reports the iteration count a spec would produce, without
// building the profile (no cost-slice allocation). Services use it to
// bound request sizes before ParseSpec commits memory; parameter errors
// the full parse would catch later (bad lo/hi etc.) are not detected here.
func SpecN(spec string) (int, error) {
	kind, kv, err := specParams(spec)
	if err != nil {
		return 0, err
	}
	get := func(key string, def float64) float64 {
		if v, ok := kv[key]; ok {
			return v
		}
		return def
	}
	switch kind {
	case "mandelbrot", "mandel":
		scale := int(get("scale", 8))
		if scale < 1 {
			scale = 1
		}
		return 1024 * (1024 / scale), nil
	case "psia", "spinimage":
		scale := int(get("scale", 8))
		if scale < 1 {
			scale = 1
		}
		return (1 << 22) / scale, nil
	case "constant", "uniform", "gaussian", "normal", "exponential", "exp",
		"gamma", "bimodal", "increasing", "decreasing":
		n := int(get("n", 4096))
		if n <= 0 {
			return 0, fmt.Errorf("workload: spec %q: n = %d, must be positive", spec, n)
		}
		return n, nil
	}
	return 0, fmt.Errorf("workload: unknown kind %q", kind)
}

func parseSpec(spec string, seed int64) (p *Profile, err error) {
	// The generators panic on a parameter or cost they cannot use, and
	// finite extremes still produce one (mean=1e308 overflows a cost to
	// +Inf, a gamma scale <= 0 has no distribution). A spec is outside
	// input, so that panic is its parse error.
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("workload: spec %q: %v", spec, r)
		}
	}()
	kind, kv, err := specParams(spec)
	if err != nil {
		return nil, err
	}
	known := func(keys ...string) error {
		for k := range kv {
			ok := false
			for _, want := range keys {
				if k == want {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("workload: spec %q: unknown parameter %q (valid: %s)",
					spec, k, strings.Join(keys, ", "))
			}
		}
		return nil
	}
	get := func(key string, def float64) float64 {
		if v, ok := kv[key]; ok {
			return v
		}
		return def
	}
	mean := get("mean", 100e-6)
	n := int(get("n", 4096))
	if n <= 0 {
		return nil, fmt.Errorf("workload: spec %q: n = %d, must be positive", spec, n)
	}
	if mean <= 0 {
		return nil, fmt.Errorf("workload: spec %q: mean = %g, must be positive", spec, mean)
	}

	switch kind {
	case "constant":
		if err := known("n", "mean"); err != nil {
			return nil, err
		}
		return Constant(n, mean), nil
	case "uniform":
		if err := known("n", "mean", "lo", "hi"); err != nil {
			return nil, err
		}
		lo, hi := get("lo", mean/2), get("hi", 1.5*mean)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Uniform(n, lo, hi, seed), nil
	case "gaussian", "normal":
		if err := known("n", "mean", "sigma", "cv"); err != nil {
			return nil, err
		}
		sigma := get("sigma", get("cv", 0.3)*mean)
		if sigma < 0 {
			return nil, fmt.Errorf("workload: spec %q: sigma = %g, must be non-negative", spec, sigma)
		}
		return Gaussian(n, mean, sigma, seed), nil
	case "exponential", "exp":
		if err := known("n", "mean"); err != nil {
			return nil, err
		}
		return Exponential(n, mean, seed), nil
	case "gamma":
		if err := known("n", "mean", "shape", "scale"); err != nil {
			return nil, err
		}
		shape := get("shape", 0.5)
		if shape <= 0 {
			return nil, fmt.Errorf("workload: spec %q: shape = %g, must be positive", spec, shape)
		}
		return Gamma(n, shape, get("scale", mean/shape), seed), nil
	case "bimodal":
		if err := known("n", "mean", "lo", "hi", "frac"); err != nil {
			return nil, err
		}
		lo, hi, frac := get("lo", mean/2), get("hi", 4*mean), get("frac", 0.2)
		if lo <= 0 || hi <= lo || frac < 0 || frac > 1 {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi and frac in [0,1] (got lo=%g hi=%g frac=%g)",
				spec, lo, hi, frac)
		}
		return Bimodal(n, lo, hi, frac, seed), nil
	case "increasing":
		if err := known("n", "mean", "lo", "hi"); err != nil {
			return nil, err
		}
		lo, hi := get("lo", mean/5), get("hi", 9*mean/5)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Increasing(n, lo, hi), nil
	case "decreasing":
		if err := known("n", "mean", "lo", "hi"); err != nil {
			return nil, err
		}
		lo, hi := get("lo", mean/5), get("hi", 9*mean/5)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Decreasing(n, lo, hi), nil
	case "mandelbrot", "mandel":
		if err := known("scale"); err != nil {
			return nil, err
		}
		return MandelbrotProfile(int(get("scale", 8))), nil
	case "psia", "spinimage":
		if err := known("scale"); err != nil {
			return nil, err
		}
		return PSIAProfile(int(get("scale", 8))), nil
	}
	return nil, fmt.Errorf("workload: unknown kind %q (constant, uniform, gaussian, exponential, gamma, bimodal, increasing, decreasing, mandelbrot, psia)", kind)
}
