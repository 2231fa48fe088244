package workload

import (
	"math"
	"testing"
)

func TestParseSpecKinds(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"constant", 4096},
		{"constant:n=100,mean=2e-6", 100},
		{"uniform:n=512", 512},
		{"gaussian:n=256,mean=50e-6,cv=0.5", 256},
		{"normal:n=256,sigma=10e-6", 256},
		{"exponential:n=128", 128},
		{"exp:n=128,mean=2e-5", 128},
		{"gamma:n=64,shape=0.7", 64},
		{"bimodal:n=300,frac=0.1", 300},
		{"increasing:n=200,lo=1e-6,hi=9e-6", 200},
		{"decreasing:n=200", 200},
	}
	for _, c := range cases {
		p, err := ParseSpec(c.spec, 1)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if p.N() != c.n {
			t.Errorf("ParseSpec(%q): N = %d, want %d", c.spec, p.N(), c.n)
		}
		if p.Total() <= 0 {
			t.Errorf("ParseSpec(%q): non-positive total %v", c.spec, p.Total())
		}
	}
}

func TestParseSpecKernels(t *testing.T) {
	p, err := ParseSpec("mandelbrot:scale=64", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != MandelbrotProfile(64) {
		t.Error("mandelbrot spec did not hit the kernel profile cache")
	}
	p, err = ParseSpec("psia:scale=64", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != PSIAProfile(64) {
		t.Error("psia spec did not hit the kernel profile cache")
	}
}

func TestParseSpecDeterministicPerSeed(t *testing.T) {
	a, err := ParseSpec("gaussian:n=128,cv=0.4", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("gaussian:n=128,cv=0.4", 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if a.Costs()[i] != b.Costs()[i] {
			t.Fatalf("same seed diverged at iteration %d", i)
		}
	}
	c, err := ParseSpec("gaussian:n=128,cv=0.4", 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.N(); i++ {
		if a.Costs()[i] != c.Costs()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical profiles")
	}
}

func TestParseSpecRamps(t *testing.T) {
	inc, err := ParseSpec("increasing:n=100", 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ParseSpec("decreasing:n=100", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i++ {
		if inc.Costs()[i] < inc.Costs()[i-1] {
			t.Fatalf("increasing ramp decreased at %d", i)
		}
		if dec.Costs()[i] > dec.Costs()[i-1] {
			t.Fatalf("decreasing ramp increased at %d", i)
		}
	}
	if math.Abs(inc.Costs()[0]-dec.Costs()[99]) > 1e-18 {
		t.Error("ramps are not mirror images at the endpoints")
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"", "unknown", "uniform:lo", "uniform:lo=abc",
		"uniform:n=0", "uniform:mean=-1", "uniform:lo=5,hi=2",
		"gaussian:shape=1", // unknown key for kind
		"constant:lo=1e-6", // unknown key for kind
		"bimodal:frac=1.5", // out of range
		"gamma:shape=-1",
		"constant:mean=NaN", // non-finite values must not reach the generators
		"uniform:lo=NaN",
		"gaussian:sigma=Inf",
		"gamma:shape=NaN",
		"exponential:mean=1e308", // finite, but the costs overflow to +Inf
		"gamma:scale=-1",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec, 1); err == nil {
			t.Errorf("ParseSpec accepted %q", spec)
		}
	}
}

func TestSpecN(t *testing.T) {
	cases := []struct {
		spec string
		want int
	}{
		{"constant", 4096},
		{"gaussian:n=512,cv=0.5", 512},
		{"bimodal:n=100", 100},
		{"mandelbrot:scale=8", 1024 * 128},
		{"mandelbrot:scale=1", 1024 * 1024},
		{"psia:scale=4", 1 << 20},
	}
	for _, tc := range cases {
		got, err := SpecN(tc.spec)
		if err != nil {
			t.Errorf("SpecN(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("SpecN(%q) = %d, want %d", tc.spec, got, tc.want)
		}
		// SpecN must agree with the profile ParseSpec actually builds.
		p, err := ParseSpec(tc.spec, 1)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if p.N() != got {
			t.Errorf("SpecN(%q) = %d but ParseSpec built n = %d", tc.spec, got, p.N())
		}
	}
	for _, bad := range []string{"", "nosuchkind", "constant:n=-1", "gaussian:n=oops"} {
		if _, err := SpecN(bad); err == nil {
			t.Errorf("SpecN(%q) should fail", bad)
		}
	}
}

// FuzzParseSpec holds the spec parser's contract on arbitrary input: no
// panic, and an accepted spec builds exactly SpecN(spec) iterations. Specs
// over 1<<16 iterations are skipped before building, as serve bounds
// request sizes with SpecN, so the fuzzer cannot allocate gigabytes. The
// target calls parseSpec, the builder behind ParseSpec's memo, so the
// fuzzer's stream of distinct specs does not fill the process-wide memo.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"constant", "constant:n=100,mean=2e-6", "uniform:n=512,lo=1e-6,hi=3e-6",
		"gaussian:n=64,cv=0.5", "exponential:n=10", "gamma:n=32,shape=2",
		"bimodal:n=100,frac=0.3", "increasing:n=50", "decreasing:n=50,lo=1,hi=2",
		"mandelbrot:scale=64", "psia:scale=256", "unknown", "", "uniform:lo",
		"constant:mean=NaN", "uniform:lo=NaN", "gaussian:sigma=Inf", "gamma:shape=NaN",
		"constant:mean=Inf,n=256", "constant:n=1e300", "exponential:mean=1e308",
		"gamma:scale=-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		n, nerr := SpecN(spec)
		if nerr == nil && n > 1<<16 {
			t.Skip()
		}
		p, err := parseSpec(spec, 1)
		if err != nil {
			return
		}
		if nerr != nil {
			t.Fatalf("parseSpec accepted %q, SpecN rejected it: %v", spec, nerr)
		}
		if p.N() != n {
			t.Fatalf("%q: SpecN = %d, profile has %d iterations", spec, n, p.N())
		}
	})
}
