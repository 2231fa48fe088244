// Command perfbench is the repository's benchmark. It drives the public
// entry points (hdls.RunSummary, hdls.Config resolution, core.ArenaStats
// and an in-process hdlsd over loopback) on one of three seeded workloads,
// checks every output against a reference, and prints the end-to-end
// metrics or, with --trace 1, the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/hdls"
	"repro/internal/cliutil"
)

// workloads lists the workload names in presentation order.
var workloads = []string{"paper-grid", "scenario-grid", "serve-mixed"}

// options is one benchmark invocation.
type options struct {
	workload     string
	seed         int64
	window       time.Duration
	trace        bool
	tiny         bool               // smoke-test sizes, set by the tests only
	setupSamples int                // set-ups measured for setup_s; the median is reported
	stateDir     string             // per-checkout state: digests, trace reports
	paperRef     map[string]float64 // paper-grid oracle
	scenarioRef  scenarioRef        // scenario-grid oracle
}

// setupSampleCount is how many cold set-ups a run measures for setup_s.
const setupSampleCount = 15

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of one timed window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	stateDir := fs.String("state-dir", filepath.Join(".bench_build", "perfbench"), "directory for digests and trace reports")
	setupOnly := fs.Bool("setup-only", false, "measure one set-up and print its seconds (used for setup_s samples)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{
		workload: *wl, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, setupSamples: setupSampleCount, stateDir: *stateDir,
	}
	if *wl == "all" {
		return runAll(o, stdout, stderr)
	}
	if !slices.Contains(workloads, *wl) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *wl, strings.Join(workloads, ", "))
		return 2
	}
	if *setupOnly {
		st, err := setupOnce(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(st, 'g', -1, 64))
		return 0
	}
	ref, err := loadPaperRef()
	if err == nil {
		o.scenarioRef, err = loadScenarioRef()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o.paperRef = ref
	res, err := runWorkload(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupOnce measures one cold set-up of o.workload in this process.
func setupOnce(o options) (float64, error) {
	if o.workload == "serve-mixed" {
		s, st, err := setupServe(o.seed, nil)
		if err != nil {
			return 0, err
		}
		s.close()
		return st.seconds, nil
	}
	_, st, err := setupGrid(o.workload, o.seed, o.tiny, nil)
	return st.seconds, err
}

// setupSamples measures n−1 cold set-ups, each in a fresh child process
// (profile and arena caches are process-wide, so only a new process sets
// up cold); the caller adds its own in-process sample.
func setupSamples(o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup samples: %w", err)
	}
	var out []float64
	for i := 1; i < n; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup sample %d: %w", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup sample %d: %w", i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runWorkload runs one workload: set-up, the timed window, the oracle,
// and — traced — the traced window and the layer probe.
func runWorkload(o options, log io.Writer) (result, error) {
	fmt.Fprintf(log, "# perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d go=%s\n",
		o.workload, o.seed, o.window.Seconds(), o.trace, runtime.GOMAXPROCS(0), runtime.Version())
	calibBefore := cliutil.CalibScore()
	var (
		res result
		err error
	)
	switch {
	case o.workload == "serve-mixed" && o.trace:
		res, err = traceServeWorkload(o, log)
	case o.workload == "serve-mixed":
		res, err = serveWorkload(o, log)
	case o.trace:
		res, err = traceGridWorkload(o, log)
	default:
		res, err = gridWorkload(o, log)
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "# meta calib_before_mops=%.1f calib_after_mops=%.1f\n", calibBefore, cliutil.CalibScore())
	fmt.Fprintf(log, "# error_rate %.6f (%d failed of %d attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	printMetrics(log, res.Metrics)
	return res, nil
}

// outcome folds a verdict into the result and reports named failures.
func outcome(log io.Writer, attempted int, v verdict, m metrics) result {
	for _, n := range v.names {
		fmt.Fprintf(log, "# FAIL %s\n", n)
	}
	return result{Correct: v.failed == 0, Attempted: attempted, Failed: v.failed, Metrics: m}
}

// e2eMetrics assembles the end-to-end metrics: the median set-up, the
// throughput and the latency quantiles of each sub-window, each reported
// as its median across sub-windows, and the process's peak RSS. Every
// figure is raw host time; the calib_*_mops meta line beside them shows
// how fast the host ran.
func e2eMetrics(setups []float64, subs []subWindow) metrics {
	var cps, p50, p90, p99 []float64
	for _, w := range subs {
		cps = append(cps, w.cellsPerS)
		p50 = append(p50, w.quantile(0.50))
		p90 = append(p90, w.quantile(0.90))
		p99 = append(p99, w.quantile(0.99))
	}
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("cells_per_s", median(cps), "1/s")
	m.set("latency_p50_ms", median(p50), "ms")
	m.set("latency_p90_ms", median(p90), "ms")
	m.set("latency_p99_ms", median(p99), "ms")
	m.set("peak_rss_mib", peakRSSMiB(), "MiB")
	return m
}

// subWindow is one slice of a timed window: its cell throughput and its
// latency quantiles in ms.
type subWindow struct {
	cellsPerS float64
	quantile  func(q float64) float64
}

func gridWorkload(o options, log io.Writer) (result, error) {
	setups, err := setupSamples(o, o.setupSamples)
	if err != nil {
		return result{}, err
	}
	cells, st, err := setupGrid(o.workload, o.seed, o.tiny, nil)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, st.seconds)
	r := runGrid(cells, o.seed, o.window, nil)
	m := e2eMetrics(setups, []subWindow{gridMedians(len(cells), r)})
	fmt.Fprintf(log, "# window cells=%d passes=%d elapsed_s=%.3f setup_samples_s=%v\n",
		len(r.obs), r.passes, r.elapsed.Seconds(), setups)
	return outcome(log, len(r.obs), checkGrid(o, log, cells, r), m), nil
}

// checkGrid applies the workload's oracle to a window.
func checkGrid(o options, log io.Writer, cells []gridCell, r gridRun) verdict {
	if o.workload == "paper-grid" {
		return checkPaperGrid(cells, r, o.paperRef)
	}
	size := "full"
	if o.tiny {
		size = "tiny"
	}
	return checkScenarioGrid(cells, r, o.scenarioRef[size][strconv.FormatInt(o.seed, 10)],
		filepath.Join(o.stateDir, fmt.Sprintf("scenario-grid-%s-seed%d.json", size, o.seed)), log)
}

func serveWorkload(o options, log io.Writer) (result, error) {
	setups, err := setupSamples(o, o.setupSamples)
	if err != nil {
		return result{}, err
	}
	s, st, err := setupServe(o.seed, nil)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, st.seconds)
	r := runServe(s, o.seed, o.window)
	cs := s.srv.Store().Stats()
	s.close()
	m := e2eMetrics(setups, r.subWindows())
	fmt.Fprintf(log, "# window requests=%d cells=%d elapsed_s=%.3f castore_hit_ratio=%.4f digest_table_grown=%d setup_samples_s=%v\n",
		r.requests(), r.cells(), r.elapsed.Seconds(), ratio(float64(cs.Hits()), float64(cs.Hits()+cs.Misses)), r.grown(), setups)
	refs := directRefs(r, nil, nil)
	var engine time.Duration
	for _, ref := range refs {
		engine += ref.host
	}
	fmt.Fprintf(log, "# engine share %.3f (direct RunSummary of the window's %d distinct cells: %.3f s)\n",
		engine.Seconds()/r.elapsed.Seconds(), len(refs), engine.Seconds())
	return outcome(log, r.requests(), checkServe(r, refs), m), nil
}

// setupLayers adds the set-up layer metrics.
func setupLayers(m metrics, st setupStats) {
	m.set("hdls.resolve_us", st.resolveUS, "us")
	m.set("workload.profile_build_ms", st.profileBuildMS, "ms")
}

// traceLayers adds the tracing overhead and each span's share of the
// traced self time, and writes the traced-run report.
func traceLayers(o options, log io.Writer, tr *tracer, m metrics, untracedCPS, tracedCPS float64) {
	m.set("trace.overhead_pct", 100*ratio(untracedCPS-tracedCPS, untracedCPS), "%")
	layers := tr.selfTimes()
	total := 0.0
	for _, l := range layers {
		total += l.SelfMS
	}
	self := map[string]float64{}
	for _, l := range layers {
		self[strings.SplitN(l.Name, ".", 2)[0]] += l.SelfMS
	}
	for _, layer := range []string{"bench", "workload", "hdls", "core", "serve", "http", "castore"} {
		m.set("self_share."+layer, ratio(self[layer], total), "ratio")
	}
	printLayers(log, layers)
	path := filepath.Join(o.stateDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	rep := traceReport{
		Workload: o.workload, Seed: o.seed, Layers: layers, Metrics: m,
		Meta:      map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()},
		CellsPerS: map[string]float64{"untraced": untracedCPS, "traced": tracedCPS},
	}
	if err := tr.writeReport(path, rep); err != nil {
		fmt.Fprintf(log, "# trace report not written: %v\n", err)
		return
	}
	fmt.Fprintf(log, "# trace report %s\n", path)
}

func traceGridWorkload(o options, log io.Writer) (result, error) {
	tr := newTracer()
	cells, st, err := setupGrid(o.workload, o.seed, o.tiny, tr)
	if err != nil {
		return result{}, err
	}
	base := runGrid(cells, o.seed, o.window, nil)
	before := readCounters()
	traced := runGrid(cells, o.seed, o.window, tr)
	after := readCounters()

	ps, err := startSession(tr)
	if err != nil {
		return result{}, err
	}
	probe := traceServe(ps, o.seed, 0, newProbe(o.seed), nil)
	ps.close()

	m := metrics{}
	setupLayers(m, st)
	coreMetrics(m, traced.obs, refObs(probe.refs))
	windowMetrics(m, before, after, len(traced.obs))
	sums := make([]hdls.Summary, len(cells))
	for _, c := range traced.obs {
		sums[c.cell] = c.sum
	}
	simMetrics(m, sums)
	serveMetrics(m, probe)
	traceLayers(o, log, tr, m,
		float64(len(base.obs))/base.elapsed.Seconds(), float64(len(traced.obs))/traced.elapsed.Seconds())

	v := checkGrid(o, log, cells, base)
	v.add(checkGrid(o, log, cells, traced))
	v.add(checkServe(probe.run, probe.refs))
	return outcome(log, len(base.obs)+len(traced.obs)+probe.run.requests(), v, m), nil
}

func traceServeWorkload(o options, log io.Writer) (result, error) {
	tr := newTracer()
	s, st, err := setupServe(o.seed, tr)
	if err != nil {
		return result{}, err
	}
	bs, err := startSession(nil)
	if err != nil {
		s.close()
		return result{}, err
	}
	base := runServe(bs, o.seed, o.window)
	bs.close()
	prefix := prefixCells(o.seed, 100)
	obs := traceServe(s, o.seed, o.window, nil, prefix)
	s.close()

	m := metrics{}
	setupLayers(m, st)
	coreMetrics(m, refObs(obs.refs), nil)
	windowMetrics(m, obs.direct[0], obs.direct[1], len(obs.refs))
	sums := make([]hdls.Summary, len(prefix))
	for i, c := range prefix {
		sums[i] = obs.refs[c.Hash()].sum
	}
	simMetrics(m, sums)
	serveMetrics(m, obs)
	cellsOf := func(r serveRun) float64 { return float64(r.cells()) / r.elapsed.Seconds() }
	traceLayers(o, log, tr, m, cellsOf(base), cellsOf(obs.run))

	v := checkServe(base, directRefs(base, nil, nil))
	v.add(checkServe(obs.run, obs.refs))
	return outcome(log, base.requests()+obs.run.requests(), v, m), nil
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's total reservation where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(w io.Writer, m metrics) {
	for _, n := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(w, "# metric %-40s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// runAll runs every workload, each in its own child process so that one
// workload's peak RSS and caches cannot leak into the next, and prints a
// combined result whose metric names are prefixed by the workload.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: metrics{}}
	for _, w := range workloads {
		trace := "0"
		if o.trace {
			trace = "1"
		}
		args := []string{"--workload", w, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.window.Seconds(), 'g', -1, 64), "--trace", trace,
			"--state-dir", o.stateDir}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(&out, stdout), stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for n, v := range r.Metrics {
			all.Metrics[w+"."+n] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
