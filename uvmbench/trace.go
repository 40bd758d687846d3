package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one job (a replay
// pass, a sweep, a service or fleet job) share job; a child names its
// parent span.
type span struct {
	name       string
	job        int64
	id, parent int64
	start, end time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps a traced run's spans in memory. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// newID reserves a span ID, for a parent whose span is recorded after its
// children.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved ID (id 0 reserves one).
func (t *tracer) record(id int64, name string, job, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	t.spans = append(t.spans, span{name: name, job: job, id: id, parent: parent, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// layerOf is the module a span measures: the part of its name before the
// first dot. Root spans ("replay.pass", "paper.sweep", "job") are the
// benchmark's own intervals.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// attribution is what a traced run says about where host time went.
type attribution struct {
	selfMS    map[string]float64 // per layer: span time not covered by children
	rootMS    float64            // total time inside root spans
	uncovered float64            // share of root time no layer span covers
	spans     int
}

// analyze computes per-layer self time: a span's duration minus the time
// its children cover (children of one span never overlap — the benchmark
// issues each job's phases in sequence).
func (t *tracer) analyze() attribution {
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent != 0 {
			childTime[s.parent] += s.dur()
		}
	}
	a := attribution{selfMS: map[string]float64{}, spans: len(t.spans)}
	var rootSelf time.Duration
	for _, s := range t.spans {
		self := s.dur() - childTime[s.id]
		if self < 0 {
			self = 0
		}
		layer := layerOf(s.name)
		a.selfMS[layer] += millis(self)
		if s.parent == 0 {
			a.rootMS += millis(s.dur())
			rootSelf += self
		}
	}
	if a.rootMS > 0 {
		a.uncovered = millis(rootSelf) / a.rootMS
	}
	return a
}

// maxExportedSpans bounds the trace file: a replay run records a span per
// CUDA call, far more than a trace viewer needs to show the pattern.
const maxExportedSpans = 100_000

// write stores the spans as Chrome trace-event JSON (one complete "X"
// event per span, microsecond timestamps from the tracer's creation) at
// path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	n := min(len(t.spans), maxExportedSpans)
	events := make([]event, 0, n)
	for _, s := range t.spans[:n] {
		events = append(events, event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS:  micros(s.start),
			Dur: micros(s.dur()),
			PID: 1, TID: s.job,
			Args: map[string]any{"job": s.job, "id": s.id, "parent": s.parent},
		})
	}
	out := struct {
		TraceEvents     []event        `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"metadata"`
	}{events, "ms", map[string]any{"spans_recorded": len(t.spans), "spans_exported": n}}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceDir receives the trace files, under the benchmark's build directory.
var traceDir = ".bench_build/trace"

// traceLayers are the layers whose self time the traced run reports.
var traceLayers = []string{"cuda", "experiments", "service", "checkpoint", "fleet"}

// setTraced fills the trace.* per-layer metrics from a traced phase, with
// the tracing overhead taken as the untraced phase's throughput over the
// traced one's, minus one, and writes the trace file.
func (r *result) setTraced(o opts, t *tracer, untraced, traced *phase) error {
	a := t.analyze()
	for _, l := range traceLayers {
		r.set("trace."+l+"_self_ms", a.selfMS[l])
	}
	r.set("trace.uncovered_frac", a.uncovered)
	r.set("trace.spans", float64(a.spans))
	u := float64(untraced.ops-untraced.failed) / untraced.wall.Seconds()
	tr := float64(traced.ops-traced.failed) / traced.wall.Seconds()
	if tr > 0 {
		r.set("trace.overhead_frac", u/tr-1)
	}
	r.attempted += traced.ops
	r.failed += traced.failed
	r.set("failed_frac", r.failedFrac())
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := t.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.notes = append(r.notes,
		fmt.Sprintf("trace: %d spans (%d exported) in %s", a.spans, min(a.spans, maxExportedSpans), path),
		fmt.Sprintf("self time per layer over %.1f ms of traced jobs; the benchmark's own, uncovered share is %.2f%%:", a.rootMS, 100*a.uncovered))
	for _, l := range traceLayers {
		if a.selfMS[l] > 0 {
			r.notes = append(r.notes, fmt.Sprintf("  %-12s %10.2f ms  %6.2f%%", l, a.selfMS[l], 100*a.selfMS[l]/a.rootMS))
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("tracing overhead: untraced %.6g ops/s, traced %.6g ops/s", u, tr))
	return nil
}

// split divides a run's measuring time: all of it to the untraced phase, or
// half to each phase in a traced run.
func split(o opts) (untraced, traced time.Duration) {
	if !o.trace {
		return o.seconds, 0
	}
	return o.seconds / 2, o.seconds - o.seconds/2
}
