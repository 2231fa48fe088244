package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/dls"
	"repro/hdls"
	"repro/internal/workload"
)

// paperGridJSON is the paper-grid oracle: each cell's parallel_time, the
// cell_seconds map of the repository's BENCH_2026-08-07b.json snapshot
// (figures 4–7, nodes 2–16, scale 64), copied here so the benchmark does
// not depend on files outside its own directory.
//
//go:embed reference/paper_grid.json
var paperGridJSON []byte

// scenarioGridJSON is the scenario-grid oracle: each cell's summary
// digest (see summaryDigest), in cell order, by size ("full" or "tiny")
// and seed. It was written with the literal event-per-step protocol
// (HDLS_FASTFORWARD=0), so the default fast-forward path is checked
// against it; TestScenarioReference -update rewrites it.
//
//go:embed reference/scenario_grid.json
var scenarioGridJSON []byte

// scenarioRef is the parsed scenario-grid oracle: size → seed → digests.
type scenarioRef map[string]map[string][]string

// loadScenarioRef parses the embedded scenario-grid oracle.
func loadScenarioRef() (scenarioRef, error) {
	ref := scenarioRef{}
	if err := json.Unmarshal(scenarioGridJSON, &ref); err != nil {
		return nil, fmt.Errorf("scenario-grid reference: %w", err)
	}
	return ref, nil
}

// summaryDigest is the first 64 bits of the SHA-256 of a summary's JSON,
// in hex.
func summaryDigest(s hdls.Summary) string {
	b, _ := json.Marshal(s) // Summary is plain scalars; cannot fail
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:8])
}

// loadPaperRef parses the embedded paper-grid oracle.
func loadPaperRef() (map[string]float64, error) {
	ref := map[string]float64{}
	if err := json.Unmarshal(paperGridJSON, &ref); err != nil {
		return nil, fmt.Errorf("paper-grid reference: %w", err)
	}
	return ref, nil
}

// gridCell is one cell of a library workload.
type gridCell struct {
	name string
	cfg  hdls.Config
}

// cellSeed derives a cell's engine seed from the benchmark seed; never 0,
// which hdls would replace with its default.
func cellSeed(seed int64, i int) int64 {
	return (seed*1_000_003+int64(i))&(1<<40-1) | 1
}

// paperGrid is the paper's evaluation (figures 4–7): both applications,
// five intra-node techniques, nodes 2–16, MPI+MPI and MPI+OpenMP at scale
// 64, minus the MPI+OpenMP TSS/FAC2 cells the Intel runtime cannot run.
// The seed sets cell seeds only; these cells have no noise source, so
// their outputs do not depend on it. tiny keeps the 2-node cells of
// figure 4.
func paperGrid(seed int64, tiny bool) []gridCell {
	figs, nodes := []int{4, 5, 6, 7}, hdls.DefaultNodes
	if tiny {
		figs, nodes = []int{4}, []int{2}
	}
	var cells []gridCell
	for _, fig := range figs {
		inter := hdls.FigureInter[fig]
		for _, app := range []hdls.App{hdls.Mandelbrot, hdls.PSIA} {
			for _, intra := range hdls.FigureIntras {
				for _, n := range nodes {
					for _, ap := range []hdls.Approach{hdls.MPIMPI, hdls.MPIOpenMP} {
						if ap == hdls.MPIOpenMP && (intra == dls.TSS || intra == dls.FAC2) {
							continue // Intel runtime limitation (paper §5)
						}
						cells = append(cells, gridCell{
							name: fmt.Sprintf("fig%d/%s/%v+%v/%dn/%v", fig, app, inter, intra, n, ap),
							cfg: hdls.Config{App: app, Nodes: n, Inter: inter, Intra: intra,
								Approach: ap, Scale: 64, Seed: cellSeed(seed, len(cells))},
						})
					}
				}
			}
		}
	}
	return cells
}

// scenarioSpecs are the synthetic loops of scenario-grid.
var scenarioSpecs = []string{
	"gaussian:n=16384,cv=0.5",
	"exponential:n=16384",
	"bimodal:n=16384,frac=0.1",
}

// scenarioMachine is scenario-grid's heterogeneous, perturbed 8-node
// machine: alternating full- and 0.45-speed nodes with 16 and 32 cores
// (cells run 16 workers per node), chunk noise, transient slowdowns and
// background load.
func scenarioMachine(seed int64) (hdls.Topology, hdls.Perturbation) {
	return hdls.Topology{NodeSpeeds: []float64{1, 0.45}, NodeCores: []int{16, 32}},
		hdls.Perturbation{
			NoiseCV:          0.2,
			SlowdownRate:     20,
			SlowdownFactor:   2,
			SlowdownDuration: 0.005,
			BackgroundLoad:   []float64{0, 0.1, 0.25, 0},
			Seed:             cellSeed(seed, 1<<20),
		}
}

// scenarioGrid is every synthetic spec × seven inter-node techniques ×
// three intra-node techniques × all three approaches on the scenario
// machine. One engine seed per run keeps the profile count at one per
// spec. tiny keeps two specs, two inter techniques and STATIC intra at
// n=2048.
func scenarioGrid(seed int64, tiny bool) []gridCell {
	specs := scenarioSpecs
	inters := []dls.Technique{dls.STATIC, dls.SS, dls.GSS, dls.TSS, dls.FAC2, dls.FAC, dls.TFSS}
	intras := []dls.Technique{dls.STATIC, dls.SS, dls.GSS}
	if tiny {
		specs = []string{"gaussian:n=2048,cv=0.5", "exponential:n=2048"}
		inters, intras = []dls.Technique{dls.GSS, dls.SS}, []dls.Technique{dls.STATIC}
	}
	topo, pert := scenarioMachine(seed)
	s := cellSeed(seed, 0)
	var cells []gridCell
	for _, spec := range specs {
		for _, inter := range inters {
			for _, intra := range intras {
				for _, ap := range []hdls.Approach{hdls.MPIMPI, hdls.MPIOpenMP, hdls.MPIOpenMPNoWait} {
					cells = append(cells, gridCell{
						name: fmt.Sprintf("%s/%v+%v/%v", strings.SplitN(spec, ":", 2)[0], inter, intra, ap),
						cfg: hdls.Config{Workload: spec, Nodes: 8, WorkersPerNode: 16,
							Inter: inter, Intra: intra, Approach: ap, Seed: s,
							Topology: topo, Perturbation: pert},
					})
				}
			}
		}
	}
	return cells
}

// setupStats is what one set-up measured.
type setupStats struct {
	seconds        float64
	profileBuildMS float64 // first-use profile construction
	resolveUS      float64 // Canonical+Hash+Validate per cell
}

// buildProfiles constructs each distinct workload profile of cfgs once,
// on first use, and returns the time it took. hdls resolves profiles
// through the same process-wide memo, so later resolution reuses them.
func buildProfiles(cfgs []hdls.Config, tr *tracer, trace, parent int64) (time.Duration, error) {
	type key struct {
		app   hdls.App
		scale int
		spec  string
		seed  int64
	}
	seen := map[key]bool{}
	var total time.Duration
	for _, c := range cfgs {
		c = c.Canonical()
		k := key{app: c.App, scale: c.Scale, spec: c.Workload, seed: c.Seed}
		if c.Workload == "" {
			k.seed = 0 // the paper kernels ignore the seed
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		sp := tr.begin(trace, parent, "workload.profile")
		t0 := time.Now()
		var err error
		switch {
		case c.Workload != "":
			_, err = workload.ParseSpec(c.Workload, c.Seed)
		case c.App == hdls.PSIA:
			workload.PSIAProfile(c.Scale)
		default:
			workload.MandelbrotProfile(c.Scale)
		}
		total += time.Since(t0)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("profile %q: %w", c.Workload, err)
		}
	}
	return total, nil
}

// resolve runs Canonical, Hash and Validate on every config and returns
// the mean time per config.
func resolve(cfgs []hdls.Config, tr *tracer, trace, parent int64) (time.Duration, error) {
	t0 := time.Now()
	for _, c := range cfgs {
		sp := tr.begin(trace, parent, "hdls.resolve")
		_ = c.Canonical()
		_ = c.Hash()
		err := c.Validate()
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("config %+v: %w", c, err)
		}
	}
	return time.Since(t0) / time.Duration(max(1, len(cfgs))), nil
}

// setupGrid generates a library workload and makes it ready to time:
// config generation and resolution, first-use profile construction and
// one warm-up cell per approach, which builds the first simulation arenas.
func setupGrid(name string, seed int64, tiny bool, tr *tracer) ([]gridCell, setupStats, error) {
	trace := tr.newTrace()
	root := tr.begin(trace, 0, "bench.setup")
	defer root.end()
	t0 := time.Now()
	var cells []gridCell
	if name == "paper-grid" {
		cells = paperGrid(seed, tiny)
	} else {
		cells = scenarioGrid(seed, tiny)
	}
	cfgs := make([]hdls.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.cfg
	}
	build, err := buildProfiles(cfgs, tr, trace, root.id())
	if err != nil {
		return nil, setupStats{}, err
	}
	per, err := resolve(cfgs, tr, trace, root.id())
	if err != nil {
		return nil, setupStats{}, err
	}
	warmed := map[hdls.Approach]bool{}
	for _, c := range cells {
		if warmed[c.cfg.Approach] {
			continue
		}
		warmed[c.cfg.Approach] = true
		sp := tr.begin(trace, root.id(), "core.run")
		_, err := hdls.RunSummary(c.cfg)
		sp.end()
		if err != nil {
			return nil, setupStats{}, fmt.Errorf("warm-up %s: %w", c.name, err)
		}
	}
	return cells, setupStats{
		seconds:        time.Since(t0).Seconds(),
		profileBuildMS: ms(build),
		resolveUS:      float64(per) / float64(time.Microsecond),
	}, nil
}

// cellObs is one timed hdls.RunSummary call.
type cellObs struct {
	cell int // index into the workload's cells
	cfg  hdls.Config
	host time.Duration
	sum  hdls.Summary
	err  error
}

// gridRun is one closed-loop window over a library workload.
type gridRun struct {
	obs     []cellObs
	passes  int
	elapsed time.Duration
}

// runGrid runs whole passes over cells, one cell at a time, each pass in
// a fresh seeded order, until window has elapsed (at least one pass).
func runGrid(cells []gridCell, seed int64, window time.Duration, tr *tracer) gridRun {
	rng := rand.New(rand.NewSource(seed))
	var r gridRun
	start := time.Now()
	for r.passes == 0 || time.Since(start) < window {
		for _, i := range rng.Perm(len(cells)) {
			trace := tr.newTrace()
			root := tr.begin(trace, 0, "bench.cell")
			sp := tr.begin(trace, root.id(), "core.run")
			t0 := time.Now()
			sum, err := hdls.RunSummary(cells[i].cfg)
			host := time.Since(t0)
			sp.end()
			root.end()
			r.obs = append(r.obs, cellObs{cell: i, cfg: cells[i].cfg, host: host, sum: sum, err: err})
		}
		r.passes++
	}
	r.elapsed = time.Since(start)
	return r
}

// gridMedians reduces a window to each cell's median host time across its
// passes. Passes lie seconds apart, so a slow spell of the shared host
// that hits one pass of a cell is outvoted by the others. The latencies
// are those medians; the throughput is the cell count over their sum.
func gridMedians(cells int, r gridRun) subWindow {
	per := make([][]float64, cells)
	for _, o := range r.obs {
		per[o.cell] = append(per[o.cell], ms(o.host))
	}
	var lat []float64
	total := 0.0
	for _, xs := range per {
		if len(xs) > 0 {
			lat = append(lat, median(xs))
			total += lat[len(lat)-1]
		}
	}
	return subWindow{
		cellsPerS: ratio(float64(len(lat)), total/1e3),
		quantile:  func(q float64) float64 { return quantile(lat, q) },
	}
}

// verdict is the oracle's judgement of a window: which observations
// failed and the names of the cells or requests that broke.
type verdict struct {
	failed int
	names  []string // at most maxNamed, so a broken build cannot flood the log
}

const maxNamed = 20

func (v *verdict) fail(name, why string) {
	v.failed++
	if len(v.names) < maxNamed {
		v.names = append(v.names, name+": "+why)
	}
}

// add folds the verdict of another window into v.
func (v *verdict) add(o verdict) {
	v.failed += o.failed
	v.names = append(v.names, o.names[:min(len(o.names), max(0, maxNamed-len(v.names)))]...)
}

// checkPaperGrid compares every cell's parallel_time with the reference.
func checkPaperGrid(cells []gridCell, r gridRun, ref map[string]float64) verdict {
	var v verdict
	for _, o := range r.obs {
		name := cells[o.cell].name
		want, ok := ref[name]
		switch {
		case o.err != nil:
			v.fail(name, o.err.Error())
		case !ok:
			v.fail(name, "no reference value")
		case float64(o.sum.ParallelTime) != want:
			v.fail(name, fmt.Sprintf("parallel_time %v, reference %v", float64(o.sum.ParallelTime), want))
		}
	}
	return v
}

// checkScenarioGrid requires every cell to return the same summary on
// every pass, a positive parallel time, and the digest the committed
// reference gives for the cell. A seed the reference does not cover is
// compared instead with the digests the first run of that seed recorded
// in stateFile, and the run says so in a # line.
func checkScenarioGrid(cells []gridCell, r gridRun, want []string, stateFile string, log io.Writer) verdict {
	var v verdict
	first := map[int]hdls.Summary{}
	for _, o := range r.obs {
		name := cells[o.cell].name
		if o.err != nil {
			v.fail(name, o.err.Error())
			continue
		}
		if o.sum.ParallelTime <= 0 || o.sum.GlobalChunks <= 0 {
			v.fail(name, fmt.Sprintf("implausible summary %+v", o.sum))
			continue
		}
		if f, ok := first[o.cell]; !ok {
			first[o.cell] = o.sum
		} else if f != o.sum {
			v.fail(name, "summary differs between passes")
		}
	}
	order := slices.Sorted(maps.Keys(first))
	if want != nil {
		if len(want) != len(cells) {
			v.fail("reference", fmt.Sprintf("%d digests for %d cells", len(want), len(cells)))
			return v
		}
		for _, i := range order {
			if summaryDigest(first[i]) != want[i] {
				v.fail(cells[i].name, "summary digest differs from the committed reference")
			}
		}
		return v
	}
	fmt.Fprintf(log, "# no committed scenario-grid reference for this seed; comparing with earlier runs in %s\n", stateFile)
	prev := map[string]string{}
	if b, err := os.ReadFile(stateFile); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			v.fail(stateFile, "unreadable digest file: "+err.Error())
		}
	}
	changed := false
	for _, i := range order {
		n, d := cells[i].name, summaryDigest(first[i])
		if p, ok := prev[n]; !ok {
			prev[n] = d
			changed = true
		} else if p != d {
			v.fail(n, "summary digest differs from an earlier run of this seed")
		}
	}
	if changed {
		if err := os.MkdirAll(filepath.Dir(stateFile), 0o755); err == nil {
			b, _ := json.MarshalIndent(prev, "", " ")
			if err := os.WriteFile(stateFile, b, 0o644); err != nil {
				fmt.Fprintf(log, "# digest file not written: %v\n", err)
			}
		}
	}
	return v
}
