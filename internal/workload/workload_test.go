package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNewRejectsBadCosts(t *testing.T) {
	for _, costs := range [][]float64{{1, 0, 1}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := New("bad", costs); err == nil {
			t.Fatalf("New accepted %v", costs)
		}
	}
}

func TestRangeSums(t *testing.T) {
	p := MustNew("t", []float64{1, 2, 3, 4})
	cases := []struct {
		a, b int
		want sim.Time
	}{
		{0, 4, 10}, {0, 0, 0}, {1, 3, 5}, {3, 4, 4}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := p.Range(c.a, c.b); got != c.want {
			t.Fatalf("Range(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if p.Total() != 10 {
		t.Fatalf("Total = %v", p.Total())
	}
	if p.Mean() != 2.5 {
		t.Fatalf("Mean = %v", p.Mean())
	}
}

func TestRangePanicsOutOfBounds(t *testing.T) {
	p := MustNew("t", []float64{1, 2})
	for _, c := range [][2]int{{-1, 1}, {0, 3}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Range(%d,%d) did not panic", c[0], c[1])
				}
			}()
			p.Range(c[0], c[1])
		}()
	}
}

func TestFromCountsCalibration(t *testing.T) {
	counts := []int{0, 10, 20, 30}
	p := FromCounts("c", counts, 100e-6, 0.1)
	if math.Abs(p.Mean()-100e-6) > 1e-12 {
		t.Fatalf("mean = %v, want 100µs", p.Mean())
	}
	// Base floor: the zero-count iteration costs exactly baseFrac·mean.
	if got := p.Costs()[0]; math.Abs(got-10e-6) > 1e-12 {
		t.Fatalf("base cost = %v, want 10µs", got)
	}
	// Costs are affine in counts.
	if d := (p.Costs()[3] - p.Costs()[2]) - (p.Costs()[2] - p.Costs()[1]); math.Abs(d) > 1e-15 {
		t.Fatal("costs not affine in counts")
	}
	// Degenerate all-zero counts: constant profile at the mean.
	z := FromCounts("z", []int{0, 0, 0}, 5e-6, 0.2)
	for i := 0; i < 3; i++ {
		if z.Costs()[i] != 5e-6 {
			t.Fatalf("zero-count profile cost = %v", z.Costs()[i])
		}
	}
}

func TestMandelbrotProfile(t *testing.T) {
	p := MandelbrotProfile(64) // 1024×16 grid, fast
	if p.N() != 1024*16 {
		t.Fatalf("N = %d, want %d", p.N(), 1024*16)
	}
	if math.Abs(p.Mean()-143e-6) > 1e-9 {
		t.Fatalf("mean = %v, want 143µs", p.Mean())
	}
	if cov := p.CoV(); cov < 0.8 {
		t.Fatalf("Mandelbrot CoV = %.2f, want high imbalance", cov)
	}
	// Cached: the same pointer comes back.
	if MandelbrotProfile(64) != p {
		t.Fatal("profile cache miss on identical parameters")
	}
}

func TestPSIAProfile(t *testing.T) {
	p := PSIAProfile(64) // 32768 points
	if p.N() != (1<<22)/64 {
		t.Fatalf("N = %d", p.N())
	}
	if math.Abs(p.Mean()-45e-6) > 1e-9 {
		t.Fatalf("mean = %v, want 45µs", p.Mean())
	}
	cov := p.CoV()
	if cov <= 0.01 || cov >= 1.0 {
		t.Fatalf("PSIA CoV = %.3f, want mild imbalance", cov)
	}
}

func TestPSIALessImbalancedThanMandelbrot(t *testing.T) {
	// The paper's §5 relies on this ordering.
	m := MandelbrotProfile(64)
	p := PSIAProfile(64)
	if p.CoV() >= m.CoV() {
		t.Fatalf("PSIA CoV %.2f not below Mandelbrot CoV %.2f", p.CoV(), m.CoV())
	}
}

func TestSyntheticProfiles(t *testing.T) {
	n := 5000
	c := Constant(n, 2e-6)
	if c.CoV() > 1e-9 || math.Abs(float64(c.Total())-float64(n)*2e-6) > 1e-12 {
		t.Fatalf("constant profile wrong: cov=%v total=%v", c.CoV(), c.Total())
	}
	u := Uniform(n, 1e-6, 3e-6, 1)
	if m := u.Mean(); m < 1.8e-6 || m > 2.2e-6 {
		t.Fatalf("uniform mean = %v", m)
	}
	g := Gaussian(n, 10e-6, 2e-6, 1)
	if m := g.Mean(); m < 9e-6 || m > 11e-6 {
		t.Fatalf("gaussian mean = %v", m)
	}
	e := Exponential(n, 5e-6, 1)
	if cov := e.CoV(); cov < 0.8 || cov > 1.2 {
		t.Fatalf("exponential CoV = %v, want ≈1", cov)
	}
	ga := Gamma(n, 0.5, 1e-6, 1)
	if cov := ga.CoV(); cov < 1.0 {
		t.Fatalf("gamma(0.5) CoV = %v, want > 1", cov)
	}
	b := Bimodal(n, 1e-6, 100e-6, 0.1, 1)
	if cov := b.CoV(); cov < 1.5 {
		t.Fatalf("bimodal CoV = %v, want large", cov)
	}
}

func TestIncreasingDecreasing(t *testing.T) {
	inc := Increasing(100, 1e-6, 9e-6)
	dec := Decreasing(100, 1e-6, 9e-6)
	closeTo := func(a, b float64) bool { return math.Abs(a-b) < 1e-15 }
	if !closeTo(inc.Costs()[0], 1e-6) || !closeTo(inc.Costs()[99], 9e-6) {
		t.Fatalf("increasing endpoints: %v, %v", inc.Costs()[0], inc.Costs()[99])
	}
	if !closeTo(dec.Costs()[0], 9e-6) || !closeTo(dec.Costs()[99], 1e-6) {
		t.Fatalf("decreasing endpoints: %v, %v", dec.Costs()[0], dec.Costs()[99])
	}
	for i := 1; i < 100; i++ {
		if inc.Costs()[i] < inc.Costs()[i-1] || dec.Costs()[i] > dec.Costs()[i-1] {
			t.Fatal("ramp not monotone")
		}
	}
	// Mirror images: same total.
	if math.Abs(float64(inc.Total()-dec.Total())) > 1e-15 {
		t.Fatalf("totals differ: %v vs %v", inc.Total(), dec.Total())
	}
}

func TestGammaValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma accepted non-positive shape")
		}
	}()
	Gamma(10, 0, 1, 1)
}

// Property: Range(a,b) always equals the direct sum, and Range(0,N) = Total.
func TestQuickPrefixSumConsistency(t *testing.T) {
	f := func(seed int64, nRaw uint8, aRaw, bRaw uint8) bool {
		n := int(nRaw%100) + 1
		p := Uniform(n, 1e-6, 5e-6, seed)
		a := int(aRaw) % (n + 1)
		b := int(bRaw) % (n + 1)
		if a > b {
			a, b = b, a
		}
		var direct float64
		for i := a; i < b; i++ {
			direct += p.Costs()[i]
		}
		return math.Abs(float64(p.Range(a, b))-direct) < 1e-12 &&
			math.Abs(float64(p.Range(0, n)-p.Total())) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRange(b *testing.B) {
	p := Uniform(1<<20, 1e-6, 3e-6, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Range(i%1000, 1000+i%100000)
	}
}
