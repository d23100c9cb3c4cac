package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"distal/internal/tensor"
	"distal/internal/wire"
)

func tinyOptions(name string, trace bool) options {
	return options{workload: name, seed: 7, seconds: 300 * time.Millisecond, trace: trace, size: tiny, setups: 1}
}

// TestEveryWorkloadEmitsEveryMetric runs every workload at a tiny size,
// untraced and traced, and checks each run is correct and reports every
// metric BENCHMARK.json declares.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(name, trace)
			o.traceOut = filepath.Join(t.TempDir(), "trace.json")
			rep, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.firstErr)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want a finite value in %s", name, trace, d.name, m, ok, d.unit)
				}
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(defs))
			}
			if trace {
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("%s: trace file: %v", name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram checks BENCHMARK.json declares exactly
// the workloads and metrics the program runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// corruptEvery returns a handler wrapper that flips the first output
// element of every nth /v1/run response, re-encoding the frame so it still
// decodes cleanly: only the reference check can catch it.
func corruptEvery(n int64, t *testing.T) func(http.Handler) http.Handler {
	var count atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, r)
			body := rr.Body.Bytes()
			if r.URL.Path == "/v1/run" && rr.Code == http.StatusOK && count.Add(1)%n == 0 {
				out, err := wire.Decode(bytes.NewReader(body))
				if err != nil {
					t.Errorf("corrupting: %v", err)
					return
				}
				out.Data()[0] += 1
				var buf bytes.Buffer
				if err := wire.Encode(&buf, out); err != nil {
					t.Errorf("corrupting: %v", err)
					return
				}
				body = buf.Bytes()
			}
			for k, v := range rr.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rr.Code)
			w.Write(body)
		})
	}
}

// TestCorruptOutputIsAFailure checks a wrong output frame counts as a
// failed op, not as a latency sample, and fails the run.
func TestCorruptOutputIsAFailure(t *testing.T) {
	o := tinyOptions(gemmWire, false)
	// The warm-up's two requests pass; every third response after is wrong.
	o.wrap = corruptEvery(3, t)
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("correct=%v failed=%d, want the corrupted outputs to fail the run", rep.Correct, rep.Failed)
	}
	if rep.samples+rep.Failed != rep.Attempted {
		t.Fatalf("%d latency samples + %d failed != %d attempted: a failed op was timed", rep.samples, rep.Failed, rep.Attempted)
	}
	if rep.samples == 0 {
		t.Fatal("no op succeeded; want only every third to fail")
	}
}

// TestTracedRowsSumToEndToEnd checks that on every workload the per-layer
// rows on the request path plus serve.residual_ms add up to the traced
// end-to-end time.
func TestTracedRowsSumToEndToEnd(t *testing.T) {
	for _, name := range workloadNames {
		rep, err := run(context.Background(), tinyOptions(name, true))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.path) == 0 {
			t.Fatalf("%s: no rows on the request path", name)
		}
		sum := rep.Metrics["serve.residual_ms"].Value
		for _, row := range rep.path {
			if _, ok := rep.Metrics[row]; !ok {
				t.Fatalf("%s: path row %s not reported", name, row)
			}
			sum += rowMS(rep, row)
		}
		e2e := rep.Metrics["trace.e2e_ms"].Value
		if e2e <= 0 || math.Abs(sum-e2e) > 1e-9*e2e {
			t.Errorf("%s: path rows + residual = %g ms, traced end-to-end %g ms", name, sum, e2e)
		}
	}
}

// TestSeedDrivesInputs checks one seed reproduces a workload's inputs and
// another changes them.
func TestSeedDrivesInputs(t *testing.T) {
	build := func(seed int64) *workload {
		w, err := buildWorkload(gemmWire, seed, tiny)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b, c := build(1), build(1), build(2)
	if !a.run.frames[0].EqualWithin(b.run.frames[0], 0) {
		t.Error("the same seed generated different frames")
	}
	if a.run.frames[0].EqualWithin(c.run.frames[0], 0) {
		t.Error("different seeds generated the same frames")
	}
	ca, err := buildWorkload(planCold, 1, tiny)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := buildWorkload(planCold, 2, tiny)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := ca.cold.perm(), cb.cold.perm()
	same := true
	for i := range pa {
		same = same && pa[i] == pb[i]
	}
	if same && len(pa) > 2 {
		t.Error("different seeds drew the same schedule order")
	}
}

// TestFrameSizeMatchesCodec checks the computed frame size against what
// the codec writes.
func TestFrameSizeMatchesCodec(t *testing.T) {
	for _, shape := range [][]int{{7}, {3, 5}, {2, 3, 4}} {
		var buf bytes.Buffer
		if err := wire.Encode(&buf, tensor.New("T", shape...)); err != nil {
			t.Fatal(err)
		}
		if got := frameSize(shape); got != float64(buf.Len()) {
			t.Errorf("frameSize(%v) = %g, codec wrote %d bytes", shape, got, buf.Len())
		}
	}
}

// TestAtReferenceScalesByItsWindow checks each request is scaled by the
// calibration runs of the second in which it ended, and that plan-cold's
// summary weighs every schedule once.
func TestAtReferenceScalesByItsWindow(t *testing.T) {
	ms := time.Millisecond
	timed := []sample{{end: 500 * ms, d: 10 * ms}, {end: 1500 * ms, d: 10 * ms}}
	cals := []sample{{end: 510 * ms, d: 2 * ms}, {end: 1510 * ms, d: ms / 2}}
	raw, ref := atReference(timed, cals)
	for i, want := range [][2]float64{{10, 5}, {10, 20}} {
		if math.Abs(raw[i]-want[0]) > 1e-9 || math.Abs(ref[i]-want[1]) > 1e-9 {
			t.Errorf("request %d: raw %g ms, at reference %g ms; want %g and %g", i, raw[i], ref[i], want[0], want[1])
		}
	}

	cold := []sample{{key: "a"}, {key: "a"}, {key: "a"}, {key: "b"}}
	if got := typical(cold, []float64{1, 2, 9, 10}); got != 6 {
		t.Errorf("plan-cold typical = %g, want the mean of the schedules' medians, 6", got)
	}
	if got := typical(make([]sample, 3), []float64{1, 2, 9}); got != 2 {
		t.Errorf("run typical = %g, want the median, 2", got)
	}
}
