// Trace-level goldens for the OpenMP executors. The kernel and scenario
// goldens compare aggregates; these freeze the full execution trace of
// MPI+OpenMP and nowait cells, in the host order the executors recorded
// it, as a digest next to the compact Summary. Any change to event order,
// timestamps, chunk boundaries or noise draws moves the digest, so a
// refactor of the executors' execution model is held to byte identity at
// the level of every traced interval.
package repro_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"testing"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var printTraceGolden = flag.Bool("print-trace-golden", false,
	"print current trace golden values instead of asserting")

// traceGoldenCase is one frozen OpenMP-executor cell.
type traceGoldenCase struct {
	name string
	cfg  func() core.Config
}

// traceGoldenCases covers both OpenMP executors under the static, dynamic
// (SS) and guided intra schedules on 2–4 nodes, plus one heterogeneous and
// one perturbed machine.
func traceGoldenCases() []traceGoldenCase {
	mandel := workload.MandelbrotProfile(64)
	uniform := workload.Uniform(2048, 15e-6, 45e-6, 5)
	cell := func(nodes int, inter, intra dls.Technique, a core.Approach, prof *workload.Profile) func() core.Config {
		return func() core.Config {
			return core.Config{
				Cluster: cluster.MiniHPC(nodes), WorkersPerNode: 16,
				Inter: inter, Intra: intra, Workload: prof,
				Approach: a, Seed: 1, CollectTrace: true,
			}
		}
	}
	return []traceGoldenCase{
		{"mpiopenmp-gss-static-2node", cell(2, dls.GSS, dls.STATIC, core.MPIOpenMP, mandel)},
		{"mpiopenmp-fac2-ss-3node", cell(3, dls.FAC2, dls.SS, core.MPIOpenMP, uniform)},
		{"mpiopenmp-static-gss-4node", cell(4, dls.STATIC, dls.GSS, core.MPIOpenMP, mandel)},
		{"nowait-gss-ss-2node", cell(2, dls.GSS, dls.SS, core.MPIOpenMPNoWait, mandel)},
		{"nowait-tss-static-4node", cell(4, dls.TSS, dls.STATIC, core.MPIOpenMPNoWait, uniform)},
		{"nowait-fac2-gss-3node", cell(3, dls.FAC2, dls.GSS, core.MPIOpenMPNoWait, mandel)},
		{"mpiopenmp-hetero-gss-gss-2node", func() core.Config {
			cl := cluster.MiniHPC(2)
			cl.NodeCores = []int{16, 8}
			cl.NodeSpeed = []float64{1, 0.5}
			return core.Config{
				Cluster: cl, WorkersPerNode: 16,
				Inter: dls.GSS, Intra: dls.GSS, Workload: uniform,
				Approach: core.MPIOpenMP, Seed: 2, CollectTrace: true,
			}
		}},
		{"nowait-perturbed-fac2-ss-2node", func() core.Config {
			return core.Config{
				Cluster: cluster.MiniHPC(2), WorkersPerNode: 16,
				Inter: dls.FAC2, Intra: dls.SS, Workload: uniform,
				Approach: core.MPIOpenMPNoWait, Seed: 3, CollectTrace: true,
				Perturb: perturb.Config{
					NoiseCV:          0.1,
					SlowdownRate:     50,
					SlowdownFactor:   2.5,
					SlowdownDuration: 1e-3 * sim.Second,
					BackgroundLoad:   []float64{0, 0.2},
					Seed:             7,
				},
			}
		}},
	}
}

// traceDigest hashes every traced interval in recording order, with exact
// float bits.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	var buf [8 * 7]byte
	for _, e := range tr.Events {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.Worker))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.Node))
		binary.LittleEndian.PutUint64(buf[16:], uint64(e.Kind))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(float64(e.Start)))
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(float64(e.End)))
		binary.LittleEndian.PutUint64(buf[40:], uint64(e.IterStart))
		binary.LittleEndian.PutUint64(buf[48:], uint64(e.IterEnd))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d:%s", len(tr.Events), hex.EncodeToString(h.Sum(nil)))
}

func TestTraceGoldenEquivalence(t *testing.T) {
	for _, c := range traceGoldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := core.Run(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			sum, err := core.RunSummary(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			got := traceGolden{digest: traceDigest(res.Trace), summary: fmt.Sprintf("%+v", sum)}
			if *printTraceGolden {
				fmt.Printf("\t%q: {\n\t\tdigest:  %q,\n\t\tsummary: %q,\n\t},\n", c.name, got.digest, got.summary)
				return
			}
			want, ok := traceGoldenWant[c.name]
			if !ok {
				t.Fatalf("no trace golden entry for %s (run with -print-trace-golden)", c.name)
			}
			if got != want {
				t.Fatalf("trace diverged from frozen golden:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
