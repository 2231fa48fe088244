package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/hdls"
)

// benchSpec is the part of BENCHMARK.json the tests check output against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyOptions is a tiny, one-set-up run of workload with the committed
// references.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	paper, err := loadPaperRef()
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := loadScenarioRef()
	if err != nil {
		t.Fatal(err)
	}
	return options{
		workload: workload, seed: 3, window: 50 * time.Millisecond, trace: trace,
		tiny: true, setupSamples: 1, stateDir: t.TempDir(), paperRef: paper, scenarioRef: scenario,
	}
}

// runTiny runs o and returns its result and everything it logged.
func runTiny(t *testing.T, o options) (result, string) {
	t.Helper()
	var log bytes.Buffer
	r, err := runWorkload(o, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	return r, log.String()
}

// TestSmokeEveryWorkload runs each workload at a tiny size, untraced and
// traced, and requires every metric BENCHMARK.json names, with its unit,
// and a clean oracle.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				r, out := runTiny(t, tinyOptions(t, w, trace == "1"))
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out, "# metric "+m.Name+" ") {
						t.Errorf("metric %s not printed by name", m.Name)
					}
				}
			})
		}
	}
}

// TestCorruptReferenceNamesCell corrupts one paper-grid reference value
// and requires the run to count the mismatch and name the cell.
func TestCorruptReferenceNamesCell(t *testing.T) {
	o := tinyOptions(t, "paper-grid", false)
	const cell = "fig4/PSIA/STATIC+GSS/2n/MPI+OpenMP"
	if _, ok := o.paperRef[cell]; !ok {
		t.Fatalf("reference has no %s", cell)
	}
	o.paperRef[cell] *= 1.001
	o.window = time.Millisecond
	r, out := runTiny(t, o)
	if r.Correct || r.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failure", r.Correct, r.Failed)
	}
	if !strings.Contains(out, "# FAIL "+cell+": parallel_time") {
		t.Errorf("failure does not name %s:\n%s", cell, out)
	}
	if !strings.Contains(out, "# error_rate ") {
		t.Errorf("error_rate not printed:\n%s", out)
	}
}

// TestScenarioReferenceDrift corrupts the committed digest of one
// scenario-grid cell and requires the run to flag that cell.
func TestScenarioReferenceDrift(t *testing.T) {
	o := tinyOptions(t, "scenario-grid", false)
	want := o.scenarioRef["tiny"]["3"]
	if len(want) == 0 {
		t.Fatal("no committed tiny reference for seed 3")
	}
	cells := scenarioGrid(3, true)
	want[0] = strings.Repeat("0", 16)
	o.window = time.Millisecond
	r, out := runTiny(t, o)
	if r.Correct || !strings.Contains(out, "# FAIL "+cells[0].name+": summary digest differs from the committed reference") {
		t.Errorf("drift on %s not reported:\n%s", cells[0].name, out)
	}
}

// TestScenarioFallbackDrift runs a seed the committed reference does not
// cover: the run must say so, and a wrong digest planted by an "earlier
// run" of that seed must be flagged.
func TestScenarioFallbackDrift(t *testing.T) {
	o := tinyOptions(t, "scenario-grid", false)
	o.seed, o.window = 5, time.Millisecond
	cells := scenarioGrid(o.seed, true)
	state := filepath.Join(o.stateDir, "scenario-grid-tiny-seed5.json")
	planted, _ := json.Marshal(map[string]string{cells[0].name: strings.Repeat("0", 16)})
	if err := os.WriteFile(state, planted, 0o644); err != nil {
		t.Fatal(err)
	}
	r, out := runTiny(t, o)
	if !strings.Contains(out, "# no committed scenario-grid reference") {
		t.Errorf("fallback not announced:\n%s", out)
	}
	if r.Correct || !strings.Contains(out, "# FAIL "+cells[0].name+": summary digest differs from an earlier run") {
		t.Errorf("drift on %s not reported:\n%s", cells[0].name, out)
	}
}

var update = flag.Bool("update", false, "rewrite reference/scenario_grid.json")

// Seeds the committed scenario-grid reference covers.
const (
	refSeedsFull = 21 // seeds 0–20
	refSeedTiny  = 3  // the tests' seed
)

// TestScenarioReference checks that the committed scenario-grid reference
// covers its seeds with one digest per cell. With -update it rewrites the
// file by running every cell once; run it as
//
//	HDLS_FASTFORWARD=0 go test -run TestScenarioReference -update .
//
// so that the reference comes from the literal event-per-step protocol.
func TestScenarioReference(t *testing.T) {
	if *update {
		writeScenarioRef(t)
	}
	ref, err := loadScenarioRef()
	if err != nil {
		t.Fatal(err)
	}
	check := func(size string, seed int64, tiny bool) {
		if got, want := len(ref[size][strconv.FormatInt(seed, 10)]), len(scenarioGrid(seed, tiny)); got != want {
			t.Errorf("%s seed %d: %d digests, want %d", size, seed, got, want)
		}
	}
	for seed := range int64(refSeedsFull) {
		check("full", seed, false)
	}
	check("tiny", refSeedTiny, true)
}

func writeScenarioRef(t *testing.T) {
	digests := func(seed int64, tiny bool) []string {
		var out []string
		for _, c := range scenarioGrid(seed, tiny) {
			sum, err := hdls.RunSummary(c.cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			out = append(out, summaryDigest(sum))
		}
		return out
	}
	var b bytes.Buffer
	line := func(seed int64, ds []string, last bool) {
		enc, _ := json.Marshal(ds)
		fmt.Fprintf(&b, "  \"%d\": %s", seed, enc)
		if !last {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("{\n \"full\": {\n")
	for seed := range int64(refSeedsFull) {
		line(seed, digests(seed, false), seed == refSeedsFull-1)
	}
	b.WriteString(" },\n \"tiny\": {\n")
	line(refSeedTiny, digests(refSeedTiny, true), true)
	b.WriteString(" }\n}\n")
	if err := os.WriteFile(filepath.Join("reference", "scenario_grid.json"), b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarioGridJSON = b.Bytes()
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 10e6},
		{Trace: 1, ID: 2, Parent: 1, Name: "kid", Start: 2e6, End: 5e6},
		{Trace: 1, ID: 3, Parent: 1, Name: "kid", Start: 4e6, End: 8e6},
	}
	for _, l := range tr.selfTimes() {
		want := map[string]float64{"root": 4, "kid": 7}[l.Name]
		if l.SelfMS != want {
			t.Errorf("%s self %v ms, want %v", l.Name, l.SelfMS, want)
		}
	}
}

// TestServeOracleNamesCell serves the layer probe's cells, then corrupts
// one direct-run reference and requires the oracle to flag that cell.
func TestServeOracleNamesCell(t *testing.T) {
	s, err := startSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	p := newProbe(3)
	run := runRequests(s, p.gen, p.reqs)
	refs := directRefs(run, nil, nil)
	if v := checkServe(run, refs); v.failed != 0 {
		t.Fatalf("clean run failed: %v", v.names)
	}
	ref := refs[p.gen.hash(0)]
	ref.summary = bytes.Replace(ref.summary, []byte(`"workers":`), []byte(`"workers":1`), 1)
	v := checkServe(run, refs)
	want := cellLabel(p.gen.config(0)) + ": responses differ from the direct run"
	if v.failed != 1 || len(v.names) != 1 || v.names[0] != want {
		t.Fatalf("failed=%d names=%q, want one failure %q", v.failed, v.names, want)
	}
}

// TestLatHistQuantile checks the histogram's quantiles against exact
// ones on a spread of latencies from 50 ns to 2 s.
func TestLatHistQuantile(t *testing.T) {
	var h latHist
	var xs []float64
	for i := range 20000 {
		d := time.Duration(50 * math.Pow(1.00088, float64(i%20000)))
		h.add(d)
		xs = append(xs, ms(d))
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		got, want := h.quantileMS(q), quantile(xs, q)
		if math.Abs(got-want) > 0.008*want+1e-6 {
			t.Errorf("q%v: %v ms, exact %v ms", q, got, want)
		}
	}
}
