package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Every span of one cell or request
// shares a Trace ID; Parent is the enclosing span (0 for a root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed window pays
// nothing for the instrumentation it does not use.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span named name under parent (0 for a root) in trace.
func (t *tracer) begin(trace, parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds(),
	}}
}

// newTrace allocates a fresh trace ID (0 when untraced).
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// id is the span's ID, the parent for spans it encloses.
func (o openSpan) id() int64 { return o.s.ID }

// end records the span.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = time.Since(o.t.t0).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns per-name totals and self times: a span's self time is
// its duration minus the part of it that its children cover (overlapping
// children are merged, so concurrent children are not double-subtracted).
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		curS, curE := int64(0), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		a := agg[s.Name]
		if a == nil {
			a = &layerTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalMS += float64(s.End-s.Start) / 1e6
		a.SelfMS += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceReport is the file a traced run writes once, when it ends. Layers
// aggregates every span; Spans keeps the first maxReportSpans of them, so
// a long serve-mixed window does not write hundreds of megabytes.
type traceReport struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Meta       map[string]any     `json:"meta"`
	Layers     []layerTime        `json:"layers"`
	Metrics    map[string]metric  `json:"per_layer"`
	CellsPerS  map[string]float64 `json:"cells_per_s"`
	SpansTotal int                `json:"spans_total"`
	Spans      []span             `json:"spans"`
}

const maxReportSpans = 50_000

// writeReport writes the traced-run report to path, creating its directory.
func (t *tracer) writeReport(path string, rep traceReport) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep.SpansTotal = len(t.spans)
	rep.Spans = t.spans[:min(len(t.spans), maxReportSpans)]
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace report: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace report: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return fmt.Errorf("trace report: %w", err)
	}
	return f.Close()
}

// printLayers writes the self-time table of a traced run.
func printLayers(w io.Writer, layers []layerTime) {
	fmt.Fprintf(w, "# %-16s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, l := range layers {
		fmt.Fprintf(w, "# %-16s %8d %12.3f %12.3f\n", l.Name, l.Count, l.TotalMS, l.SelfMS)
	}
}
