package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestMiniHPCValid(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		c := MiniHPC(nodes)
		if err := c.Validate(); err != nil {
			t.Fatalf("MiniHPC(%d) invalid: %v", nodes, err)
		}
		total := 0
		for n := 0; n < c.Nodes; n++ {
			total += c.Cores(n)
		}
		if total != nodes*16 {
			t.Fatalf("total cores = %d, want %d", total, nodes*16)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := MiniHPC(4)
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, "Nodes"},
		{"negative cores", func(c *Config) { c.CoresPerNode = -1 }, "CoresPerNode"},
		{"speed length", func(c *Config) { c.NodeSpeed = []float64{1, 1} }, "NodeSpeed"},
		{"zero speed", func(c *Config) { c.NodeSpeed = []float64{1, 0, 1, 1} }, "positive"},
		{"negative noise", func(c *Config) { c.NoiseCV = -0.1 }, "NoiseCV"},
		{"zero poll", func(c *Config) { c.Mem.PollInterval = 0 }, "poll"},
		{"nan speed", func(c *Config) { c.NodeSpeed = []float64{1, math.NaN(), 1, 1} }, "NodeSpeed[1]"},
		{"inf speed", func(c *Config) { c.NodeSpeed = []float64{1, 1, 1, math.Inf(1)} }, "NodeSpeed[3]"},
		{"nan noise", func(c *Config) { c.NoiseCV = math.NaN() }, "NoiseCV"},
		{"inf noise", func(c *Config) { c.NoiseCV = math.Inf(1) }, "NoiseCV"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad config")
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSpeedDefaultsToOne(t *testing.T) {
	c := MiniHPC(3)
	for n := 0; n < 3; n++ {
		if c.Speed(n) != 1 {
			t.Fatalf("Speed(%d) = %v, want 1", n, c.Speed(n))
		}
	}
}

func TestHeteroSpeeds(t *testing.T) {
	c := MiniHPCHetero(4, 1.0, 0.5)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0, 0.5, 1.0, 0.5}
	for i, w := range want {
		if c.Speed(i) != w {
			t.Fatalf("Speed(%d) = %v, want %v", i, c.Speed(i), w)
		}
	}
}

func TestKNLPreset(t *testing.T) {
	c := MiniHPCKNL(4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.CoresPerNode != 64 {
		t.Fatalf("KNL cores = %d, want 64", c.CoresPerNode)
	}
	for n := 0; n < 4; n++ {
		if c.Speed(n) != 0.45 {
			t.Fatalf("KNL speed = %v, want 0.45", c.Speed(n))
		}
	}
	xeon := MiniHPC(4)
	if c.Mem.LockAttempt <= xeon.Mem.LockAttempt {
		t.Fatal("KNL lock attempts should cost more than Xeon's")
	}
}
