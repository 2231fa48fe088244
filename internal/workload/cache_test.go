package workload

import (
	"sync"
	"testing"
)

// TestParseSpecMemoized asserts the (spec, seed) memo returns the identical
// immutable profile, while distinct seeds still get distinct random draws.
func TestParseSpecMemoized(t *testing.T) {
	a, err := ParseSpec("gaussian:n=512,cv=0.4", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("gaussian:n=512,cv=0.4", 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (spec, seed) returned distinct profiles; memo missing")
	}
	c, err := ParseSpec("gaussian:n=512,cv=0.4", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds shared one profile; seed must key the memo")
	}
	if _, err := ParseSpec("nonsense:zzz=1", 1); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestParseSpecConcurrentByteIdentical resolves the same specs from many
// goroutines (run under -race in CI) and checks every result is
// byte-identical to a reference resolution.
func TestParseSpecConcurrentByteIdentical(t *testing.T) {
	specs := []string{
		"gaussian:n=256,cv=0.3", "uniform:n=256", "exponential:n=128",
		"bimodal:n=256", "mandelbrot:scale=64", "psia:scale=256",
	}
	refs := make([]*Profile, len(specs))
	for i, sp := range specs {
		p, err := ParseSpec(sp, 11)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = p
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failure string
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i, sp := range specs {
					p, err := ParseSpec(sp, 11)
					if err != nil || p.N() != refs[i].N() {
						mu.Lock()
						failure = sp
						mu.Unlock()
						return
					}
					for k := 0; k < p.N(); k += 17 {
						if p.Costs()[k] != refs[i].Costs()[k] {
							mu.Lock()
							failure = sp
							mu.Unlock()
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if failure != "" {
		t.Fatalf("%s: concurrent ParseSpec diverged from reference", failure)
	}
}

// TestKernelProfileCachesShareBackingData pins the process-wide kernel
// memos: repeated profile construction must not recompute the escape
// counts / candidate counts.
func TestKernelProfileCachesShareBackingData(t *testing.T) {
	if MandelbrotProfile(64) != MandelbrotProfile(64) {
		t.Error("MandelbrotProfile not memoized")
	}
	if PSIAProfile(256) != PSIAProfile(256) {
		t.Error("PSIAProfile not memoized")
	}
	if MandelbrotProfile(64) == MandelbrotProfile(32) {
		t.Error("distinct scales shared one profile")
	}
}
