package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: its name, the op it served, the
// span that made the call (-1 for a root), and its interval.
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the recorder's epoch
	failed     bool
}

// recorder keeps the traced run's spans in memory until the run ends. It
// is used from one goroutine. A nil recorder records nothing, so the
// untraced run shares the traced run's code path.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) start(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

// end closes span id, marking it failed when err is non-nil.
func (r *recorder) end(id int, err error) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
	r.spans[id].failed = err != nil
}

// fail marks span id failed after it ended (a wrong output found later).
func (r *recorder) fail(id int) {
	if r != nil && id >= 0 {
		r.spans[id].failed = true
	}
}

// layerTotals is one span name's aggregate: summed self time, calls, and
// failed calls.
type layerTotals struct {
	self          time.Duration
	calls, failed int
}

// totals aggregates self times by span name. A span's self time is its
// duration minus the durations of its direct children (children never
// overlap: the recorder is single-threaded).
func (r *recorder) totals() map[string]*layerTotals {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range r.spans {
		t := out[s.name]
		if t == nil {
			t = &layerTotals{}
			out[s.name] = t
		}
		t.self += s.end - s.start - child[i]
		t.calls++
		if s.failed {
			t.failed++
		}
	}
	return out
}

// duration is the summed full duration (not self time) of the named spans.
func (r *recorder) duration(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace_event JSON (chrome://tracing,
// Perfetto): one complete event per span, one track per op.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.op,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.parent, "op": s.op, "failed": s.failed},
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
