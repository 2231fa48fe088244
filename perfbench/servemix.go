package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/dls"
	"repro/hdls"
	"repro/internal/serve"
)

// serveSpecs are the small synthetic loops of serve-mixed's cold cells.
var serveSpecs = []string{
	"gaussian:n=512,cv=0.5",
	"exponential:n=512",
	"bimodal:n=512,frac=0.1",
}

// Knobs of the serve-mixed request stream. The mix is chosen, not taken
// from recorded traffic: hitShare makes most cells memory-tier hits, as
// the workload calls for, and sweepShare puts streamed sweeps in the mix.
const (
	serveClients = 2    // closed-loop clients
	hitShare     = 0.85 // share of cells that repeat a completed cell
	sweepShare   = 0.15 // share of requests that are streamed sweeps
	repeatWindow = 1024 // repeats draw from a client's last completed cells

	// serveSubWindows is how many equal slices the window is cut into; the
	// end-to-end metrics are medians across slices, so a burst of host
	// interference spoils one slice rather than the run.
	serveSubWindows = 10

	// coldPerSecond sizes each client's digest table: room for this many
	// cold cells per second of window, over three times what a two-core
	// host serves, allocated and touched before the window starts.
	coldPerSecond = 8192
)

// coldCell is a cold cell's parameters, as indices into the axes below;
// streamGen.config expands one into its hdls.Config.
type coldCell struct{ spec, nodes, workers, inter, intra, approach uint8 }

// The axes cold cells draw from.
var (
	coldNodes      = []int{2, 2, 2, 4, 4, 4, 8, 16}
	coldWorkers    = []int{2, 4}
	coldInters     = []dls.Technique{dls.STATIC, dls.GSS, dls.TSS, dls.FAC2}
	coldIntras     = []dls.Technique{dls.STATIC, dls.SS, dls.GSS}
	coldApproaches = []hdls.Approach{hdls.MPIMPI, hdls.MPIOpenMP, hdls.MPIOpenMPNoWait}
)

// streamGen is one client's seeded request stream. A client is a closed
// loop, so the stream is a pure function of (seed, client): repeats only
// name cells the same client has already completed, and cold cells are
// unique to the client (its index is folded into NoiseCV), so a repeat is
// a memory-tier hit and a cold cell a miss. Requests name cold cells by
// index; cell i's parameters are a hash of (seed, client, i), so the
// stream keeps no table of them.
type streamGen struct {
	rng    *rand.Rand
	client int
	seed   int64
	table  []coldCell // the layer probe's fixed cells; nil for a seeded stream
	n      int32      // cold cells named so far
	done   int32      // cold cells [0, done) have completed
	hashes []string   // Hash of config(i), filled by hash after the window

	// digests[i] is the digest of the first response that carried cold
	// cell i, 0 until one arrives (see digest4); every later response for
	// it must match, and the oracle compares it with the direct run. The
	// table is allocated before the window for its whole length, so the
	// benchmark's own memory does not grow with throughput; grown counts
	// the entries appended past it.
	digests []uint32
	grown   int
}

// digest4 is a 32-bit SHA-256 prefix, never 0, of the part every response
// for a cell shares, whether a /v1/run body or a sweep line:
// "hash":"…","summary":…} — the body adds a leading { and a trailing
// newline, a sweep line a leading {"index":i,. Four bytes keep the table
// small; a wrong body still matches with odds of 2^-31 per cell.
func digest4(b []byte) uint32 {
	sum := sha256.Sum256(b)
	return binary.LittleEndian.Uint32(sum[:4]) | 1
}

// observe checks one response's shared part for cell i against the first
// one seen, and reports whether they agree.
func (g *streamGen) observe(i int32, shared []byte) bool {
	for int(i) >= len(g.digests) {
		g.digests = append(g.digests, 0)
		g.grown++
	}
	d := digest4(shared)
	if g.digests[i] == 0 {
		g.digests[i] = d
		return true
	}
	return g.digests[i] == d
}

// newStreamGen starts client's stream with a digest table of room cells.
func newStreamGen(seed int64, client, room int) *streamGen {
	g := &streamGen{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(client) + 1)),
		client:  client,
		seed:    cellSeed(seed, 0),
		digests: make([]uint32, room),
	}
	for i := range g.digests {
		g.digests[i] = 0 // touch every page now rather than in the window
	}
	return g
}

// params returns cold cell i's parameters.
func (g *streamGen) params(i int32) coldCell {
	if g.table != nil {
		return g.table[i]
	}
	h := splitmix(uint64(g.seed) ^ uint64(g.client+1)<<56 ^ uint64(i))
	pick := func(n int) uint8 {
		v := h % uint64(n)
		h /= uint64(n)
		return uint8(v)
	}
	return coldCell{
		spec: pick(len(serveSpecs)), nodes: pick(len(coldNodes)), workers: pick(len(coldWorkers)),
		inter: pick(len(coldInters)), intra: pick(len(coldIntras)), approach: pick(len(coldApproaches)),
	}
}

// splitmix is the SplitMix64 finaliser.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// config expands cold cell i.
func (g *streamGen) config(i int32) hdls.Config {
	c := g.params(i)
	return hdls.Config{
		Workload:       serveSpecs[c.spec],
		Nodes:          coldNodes[c.nodes],
		WorkersPerNode: coldWorkers[c.workers],
		Inter:          coldInters[c.inter],
		Intra:          coldIntras[c.intra],
		Approach:       coldApproaches[c.approach],
		Seed:           g.seed,
		NoiseCV:        0.05 + float64(int(i)*serveClients+g.client)*1e-6,
	}
}

// hash returns the config hash of cold cell i.
func (g *streamGen) hash(i int32) string {
	for int32(len(g.hashes)) < g.n {
		g.hashes = append(g.hashes, g.config(int32(len(g.hashes))).Hash())
	}
	return g.hashes[i]
}

// cell returns a repeat of a recently completed cell or a cold one.
func (g *streamGen) cell() int32 {
	if g.done > 0 && g.rng.Float64() < hitShare {
		lo := max(0, g.done-repeatWindow)
		return lo + g.rng.Int31n(g.done-lo)
	}
	g.n++
	return g.n - 1
}

// request is one HTTP request of the stream: a single /v1/run cell, or a
// streamed /v1/sweep batch of 4–12 cells.
type request struct {
	sweep bool
	cells []int32 // cold-cell indices
}

func (g *streamGen) next() request {
	r := request{cells: make([]int32, 1)}
	if g.rng.Float64() < sweepShare {
		r.sweep = true
		r.cells = make([]int32, 4+g.rng.Intn(9))
	}
	for i := range r.cells {
		r.cells[i] = g.cell()
	}
	return r
}

// complete marks every cell named so far as completed.
func (g *streamGen) complete() { g.done = g.n }

// prefixCells returns the cold cells of the first n requests of every
// client's stream. The set depends on the seed only, never on how far a
// timed window got.
func prefixCells(seed int64, n int) []hdls.Config {
	var out []hdls.Config
	for c := 0; c < serveClients; c++ {
		g := newStreamGen(seed, c, 0)
		for range n {
			g.next()
			g.complete()
		}
		for i := range g.n {
			out = append(out, g.config(i))
		}
	}
	return out
}

// session is an in-process hdlsd on a loopback listener.
type session struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	tr     *tracer

	mu      sync.Mutex
	handled map[int64]handlerObs // by request ID, traced runs only
}

// handlerObs is what the benchmark's middleware saw of one request.
type handlerObs struct {
	dur   time.Duration
	cache string
}

// startSession builds the server and waits until /healthz returns 200.
// When tr is non-nil the handler is wrapped in a timing middleware that
// records a serve.handler span under the client's span.
func startSession(tr *tracer) (*session, error) {
	s := &session{srv: serve.New(serve.Options{Workers: 2}), tr: tr, handled: map[int64]handlerObs{}}
	h := s.srv.Handler()
	if tr != nil {
		h = s.middleware(h)
	}
	s.ts = httptest.NewServer(h)
	s.client = s.ts.Client()
	s.client.Transport.(*http.Transport).MaxIdleConnsPerHost = serveClients * 2
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.ts.URL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("hdlsd never became healthy (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listener and drains the server's worker pool.
func (s *session) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // fails only when ctx expires, and the run is over either way
}

// middleware times next around each request of a traced run, recording a
// serve.handler span under the client's span and the handler time and
// X-Cache label under the request's ID.
func (s *session) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		trace, _ := strconv.ParseInt(r.Header.Get("X-Bench-Trace"), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		sp := s.tr.begin(trace, parent, "serve.handler")
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		sp.end()
		if id != 0 {
			s.mu.Lock()
			s.handled[id] = handlerObs{dur: d, cache: w.Header().Get("X-Cache")}
			s.mu.Unlock()
		}
	})
}

// clientLog is what one client records in a window: per sub-window, the
// cells it completed and a histogram of its latencies, and the requests
// that failed. Its size does not depend on how many requests the window
// held. Traced runs also keep every request with its latency.
type clientLog struct {
	start time.Time
	slice time.Duration // sub-window length
	subs  [serveSubWindows]subLog
	n     int             // requests sent
	fails map[int]failure // by request index
	keep  bool
	kept  []sentRequest // traced runs only
}

type subLog struct {
	cells int
	hist  latHist
}

// failure is a failed request: its first cell and what went wrong.
type failure struct {
	cell int32
	msg  string
}

// sentRequest is a request of a traced run and its latency.
type sentRequest struct {
	req request
	lat time.Duration
}

// record files one request's latency under the sub-window it completed
// in; the last sub-window also takes requests still in flight when the
// window closed.
func (l *clientLog) record(req request, lat time.Duration, now time.Time) {
	j := min(serveSubWindows-1, int(now.Sub(l.start)/max(l.slice, 1)))
	l.subs[j].cells += len(req.cells)
	l.subs[j].hist.add(lat)
	l.n++
	if l.keep {
		l.kept = append(l.kept, sentRequest{req: req, lat: lat})
	}
}

// reqID numbers request k of client c; the traced middleware keys its
// observations by it.
func reqID(c, k int) int64 { return int64(k)*serveClients + int64(c) + 1 }

// do sends request k of client g, reads the whole body and appends to log;
// latency runs from submit until the body is fully read.
func (s *session) do(g *streamGen, req request, log *clientLog) {
	k := log.n
	fail := func(msg string) {
		if log.fails == nil {
			log.fails = map[int]failure{}
		}
		log.fails[k] = failure{cell: req.cells[0], msg: msg}
	}
	cfgs := make([]hdls.Config, len(req.cells))
	for i, c := range req.cells {
		cfgs[i] = g.config(c)
	}
	var payload []byte
	var err error
	url := s.ts.URL + "/v1/run"
	if req.sweep {
		payload, err = json.Marshal(map[string][]hdls.Config{"cells": cfgs})
		url = s.ts.URL + "/v1/sweep?stream=1"
	} else {
		payload, err = json.Marshal(cfgs[0])
	}
	var hreq *http.Request
	if err == nil {
		hreq, err = http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	}
	if err != nil {
		log.record(req, 0, time.Now())
		fail(err.Error())
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	trace := s.tr.newTrace()
	sp := s.tr.begin(trace, 0, "http.client")
	if s.tr != nil {
		hreq.Header.Set("X-Bench-Req", strconv.FormatInt(reqID(g.client, k), 10))
		hreq.Header.Set("X-Bench-Trace", strconv.FormatInt(trace, 10))
		hreq.Header.Set("X-Bench-Span", strconv.FormatInt(sp.id(), 10))
	}
	t0 := time.Now()
	resp, err := s.client.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	now := time.Now()
	log.record(req, now.Sub(t0), now)
	sp.end()
	switch {
	case err != nil:
		fail(err.Error())
	case resp.StatusCode != http.StatusOK:
		fail(fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body)))
	case !req.sweep:
		if len(body) < 2 || body[0] != '{' || body[len(body)-1] != '\n' || !g.observe(req.cells[0], body[1:len(body)-1]) {
			fail("body differs from earlier responses for its cell")
		}
	default:
		for i, c := range req.cells {
			line, rest, ok := bytes.Cut(body, []byte{'\n'})
			if !ok {
				fail(fmt.Sprintf("stream ended after %d of %d lines", i, len(req.cells)))
				return
			}
			prefix := strconv.AppendInt([]byte(`{"index":`), int64(i), 10)
			prefix = append(prefix, ',')
			if !bytes.HasPrefix(line, prefix) || !g.observe(c, line[len(prefix):]) {
				fail(fmt.Sprintf("line %d differs from earlier responses for its cell", i))
				return
			}
			body = rest
		}
		if len(body) != 0 {
			fail("bytes after the last cell line")
		}
	}
}

// serveRun is one window of serve-mixed: every client's stream and log.
type serveRun struct {
	gens    []*streamGen
	logs    []clientLog
	window  time.Duration
	elapsed time.Duration
}

// requests counts the window's requests.
func (r serveRun) requests() int {
	n := 0
	for c := range r.logs {
		n += r.logs[c].n
	}
	return n
}

// cells counts the window's cells.
func (r serveRun) cells() int {
	n := 0
	for c := range r.logs {
		for j := range r.logs[c].subs {
			n += r.logs[c].subs[j].cells
		}
	}
	return n
}

// grown counts digest-table entries appended during the window.
func (r serveRun) grown() int {
	n := 0
	for _, g := range r.gens {
		n += g.grown
	}
	return n
}

// subWindows merges the clients' logs into the window's slices.
func (r serveRun) subWindows() []subWindow {
	var out []subWindow
	slice := r.window / serveSubWindows
	for j := range serveSubWindows {
		h := new(latHist)
		cells := 0
		for c := range r.logs {
			h.merge(&r.logs[c].subs[j].hist)
			cells += r.logs[c].subs[j].cells
		}
		if h.total == 0 {
			continue
		}
		length := slice
		if j == serveSubWindows-1 {
			length = max(slice, r.elapsed-slice*(serveSubWindows-1))
		}
		out = append(out, subWindow{cellsPerS: float64(cells) / length.Seconds(), quantile: h.quantileMS})
	}
	return out
}

// runServe drives the session with every client's stream until window has
// elapsed; each client finishes the request it has in flight. A traced
// session keeps every request for the layer metrics.
func runServe(s *session, seed int64, window time.Duration) serveRun {
	run := serveRun{logs: make([]clientLog, serveClients), gens: make([]*streamGen, serveClients), window: window}
	room := int(window.Seconds()*coldPerSecond) + repeatWindow
	for c := range run.gens {
		run.gens[c] = newStreamGen(seed, c, room)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := range run.logs {
		l := &run.logs[c]
		l.start, l.slice, l.keep = start, window/serveSubWindows, s.tr != nil
		g := run.gens[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l.n == 0 || time.Since(start) < window {
				s.do(g, g.next(), l)
				g.complete()
			}
		}()
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	return run
}

// runRequests sends reqs one at a time as client g.
func runRequests(s *session, g *streamGen, reqs []request) serveRun {
	start := time.Now()
	run := serveRun{gens: []*streamGen{g}, logs: []clientLog{{start: start, keep: true}}}
	for _, r := range reqs {
		s.do(g, r, &run.logs[0])
	}
	run.elapsed = time.Since(start)
	return run
}

// directRef is one cell's reference outcome, computed outside the window
// by calling hdls.RunSummary directly.
type directRef struct {
	cfg     hdls.Config
	hash    string
	summary []byte
	sum     hdls.Summary
	host    time.Duration
	err     error
}

// directRefs runs every cell the window sent, and extra, once, directly.
func directRefs(run serveRun, extra []hdls.Config, tr *tracer) map[string]*directRef {
	refs := map[string]*directRef{}
	add := func(cfg hdls.Config, h string) {
		if refs[h] != nil {
			return
		}
		trace := tr.newTrace()
		sp := tr.begin(trace, 0, "core.run")
		t0 := time.Now()
		sum, err := hdls.RunSummary(cfg)
		d := &directRef{cfg: cfg, hash: h, sum: sum, host: time.Since(t0), err: err}
		sp.end()
		d.summary, _ = json.Marshal(sum) // Summary is plain scalars; cannot fail
		refs[h] = d
	}
	for _, g := range run.gens {
		for i := range g.n {
			add(g.config(i), g.hash(i))
		}
	}
	for _, c := range extra {
		add(c, c.Hash())
	}
	return refs
}

// checkServe requires every response to byte-equal what hdlsd must
// produce from the direct RunSummary of its cells: {"hash":…,"summary":…}
// and a newline for /v1/run, one serve.CellLine per cell for a streamed
// sweep. The window already checked each response's framing and that all
// responses for a cell agree; this compares each cell's shared part with
// the direct run. A failure names the request or the cell.
func checkServe(run serveRun, refs map[string]*directRef) verdict {
	var v verdict
	for c := range run.logs {
		g := run.gens[c]
		for k, f := range run.logs[c].fails {
			v.fail(fmt.Sprintf("request %d (%s)", reqID(c, k), cellLabel(g.config(f.cell))), f.msg)
		}
		for i := range min(g.n, int32(len(g.digests))) {
			d := g.digests[i]
			if d == 0 {
				continue // only ever sent in failed requests
			}
			ref := refs[g.hash(i)]
			switch {
			case ref.err != nil:
				v.fail(cellLabel(ref.cfg), "direct run failed: "+ref.err.Error())
			case digest4(fmt.Appendf(nil, `"hash":%q,"summary":%s}`, ref.hash, ref.summary)) != d:
				v.fail(cellLabel(ref.cfg), "responses differ from the direct run")
			}
		}
	}
	return v
}

// cellLabel names a cell compactly for failure reports.
func cellLabel(c hdls.Config) string {
	return fmt.Sprintf("%s %dn %v+%v %v cv=%g", c.Workload, c.Nodes, c.Inter, c.Intra, c.Approach, c.NoiseCV)
}

// setupServe resolves the stream's opening cells (profile construction,
// then Canonical/Hash/Validate), builds the server and waits for /healthz.
func setupServe(seed int64, tr *tracer) (*session, setupStats, error) {
	trace := tr.newTrace()
	root := tr.begin(trace, 0, "bench.setup")
	defer root.end()
	t0 := time.Now()
	cfgs := prefixCells(seed, 64)
	build, err := buildProfiles(cfgs, tr, trace, root.id())
	if err != nil {
		return nil, setupStats{}, err
	}
	per, err := resolve(cfgs, tr, trace, root.id())
	if err != nil {
		return nil, setupStats{}, err
	}
	sp := tr.begin(trace, root.id(), "serve.start")
	s, err := startSession(tr)
	sp.end()
	if err != nil {
		return nil, setupStats{}, err
	}
	return s, setupStats{
		seconds:        time.Since(t0).Seconds(),
		profileBuildMS: ms(build),
		resolveUS:      float64(per) / float64(time.Microsecond),
	}, nil
}
