package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string // Chrome trace file of the traced run; "" writes none
	size     size
	// setups is the least number of set-ups timed for setup_s; cheap
	// set-ups repeat until they have taken setupFor, at most maxSetups
	// times. The last one is kept.
	setups   int
	setupFor time.Duration
	// wrap wraps the server handler (tests corrupt responses with it).
	wrap func(http.Handler) http.Handler
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in print order.
var endToEnd = []metricDef{
	{"latency_ref_ms", "ms"},
	{"sim_gflops", "GFLOP/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"alloc_kb_per_op", "KiB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result: the JSON line's fields plus the
// human-readable notes printed above it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	defs  []metricDef
	notes []string
	// path lists the per-layer rows that lie on the traced request path:
	// they and serve.residual_ms sum to trace.e2e_ms.
	path []string
	// firstErr is the first failure seen, for the diagnostics.
	firstErr error
	// samples is how many request latencies the metrics summarize.
	samples int
}

func newReport(defs []metricDef) *report {
	return &report{Metrics: map[string]metric{}, defs: defs}
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: metric " + name + " is not declared")
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts n failed ops, keeping the first cause.
func (r *report) fail(n int, err error) {
	r.Failed += n
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// maxSetups bounds the repeats of a cheap set-up.
const maxSetups = 25

// setupRun builds the workload and its server at least o.setups times, and
// more while the set-ups have taken less than o.setupFor, timing each
// whole set-up (server start, input generation, reference evaluation,
// warm-up). It keeps the last. Beside each set-up's time it returns that
// time in seconds at the reference speed, from calibration runs just
// before and just after the set-up.
func setupRun(ctx context.Context, o options, k *calibrator) (*workload, *env, []time.Duration, []float64, error) {
	var (
		w     *workload
		e     *env
		times []time.Duration
		refs  []float64
	)
	var spent time.Duration
	for i := 0; i < max(o.setups, 1) || (spent < o.setupFor && i < maxSetups); i++ {
		if e != nil {
			e.close()
		}
		before := k.speed(5)
		t0 := time.Now()
		var err error
		if w, err = buildWorkload(o.workload, o.seed, o.size); err != nil {
			return nil, nil, nil, nil, err
		}
		if e, err = startEnv(w, o.wrap); err != nil {
			return nil, nil, nil, nil, err
		}
		if err := warmUp(ctx, w, e); err != nil {
			e.close()
			return nil, nil, nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0))
		after := k.speed(5)
		refs = append(refs, scaled(times[i], (before+after)/2).Seconds())
		spent += times[i]
	}
	return w, e, times, refs, nil
}

// warmUp compiles the run workloads' plan (so timed requests hit the plan
// cache) and checks its output; plan-cold compiles a plan of another size,
// warming the server's code paths without caching any drawn schedule.
func warmUp(ctx context.Context, w *workload, e *env) error {
	if w.cold != nil {
		_, err := e.cl.execute(ctx, w.cold.warmup)
		return err
	}
	for i := 0; i < 2; i++ {
		outs, _, err := e.cl.run(ctx, w.run, nil, 0, -1)
		if err != nil {
			return err
		}
		if bad := checkOutputs(outs, w.run.refs); bad > 0 {
			return fmt.Errorf("%d of %d warm-up outputs differ from the reference", bad, len(w.run.refs))
		}
	}
	return nil
}

// measureEndToEnd drives the closed loop for o.seconds with tracing off and
// reports every end-to-end metric.
func measureEndToEnd(ctx context.Context, o options) (*report, error) {
	k := newCalibrator()
	w, e, setups, setupsRef, err := setupRun(ctx, o, k)
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }()
	rep := newReport(endToEnd)

	var (
		timed    []sample // successful requests only
		cals     []sample // the calibration run after every request
		calTime  time.Duration
		sims     []float64
		requests int
		okOps    int
		conns    int64
	)
	heap := startHeapSampler()
	alloc0 := readMetric("/gc/heap/allocs:bytes")
	restart := func() (err error) {
		conns += e.conns.Load()
		e.close()
		// Collect the closed server's plans, so each pass starts on the
		// same heap.
		runtime.GC()
		e, err = startEnv(w, o.wrap)
		return err
	}
	start := time.Now()
	active, err := drive(w, o.seconds, 1, restart, func(_ int, sched string) {
		t0 := time.Now()
		sim, bad, err := w.send(ctx, e.cl, nil, 0, -1, sched)
		lat := time.Since(t0)
		requests++
		rep.Attempted += w.batch()
		if err != nil {
			rep.fail(bad, err)
			return
		}
		okOps += w.batch()
		timed = append(timed, sample{end: time.Since(start), key: sched, d: lat})
		sims = append(sims, sim)
		cal := k.run()
		calTime += cal
		cals = append(cals, sample{end: time.Since(start), d: cal})
	})
	if err != nil {
		heap.stop()
		return nil, err
	}
	allocs := readMetric("/gc/heap/allocs:bytes") - alloc0
	peak := heap.stop()
	conns += e.conns.Load()

	rep.Correct = rep.Failed == 0
	if len(timed) == 0 {
		return rep, nil
	}
	rep.samples = len(timed)
	lats, latsRef := atReference(timed, cals)
	sort.Float64s(lats)
	p, tail, beyond := tailPercentile(lats)
	rep.set("latency_ref_ms", typical(timed, latsRef))
	if w.cold != nil {
		rep.set("sim_gflops", geomean(sims))
	} else {
		rep.set("sim_gflops", median(sims))
	}
	rep.set("setup_s", median(setupsRef))
	rep.set("peak_heap_mb", peak/(1<<20))
	rep.set("alloc_kb_per_op", float64(allocs)/float64(rep.Attempted)/1024)

	traffic := (active - calTime).Seconds()
	rep.note("requests=%d ops=%d failed=%d error_rate=%g connections=%d timed_s=%.3f of which calibration_s=%.3f",
		requests, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted), conns, active.Seconds(), calTime.Seconds())
	calWalls := make([]time.Duration, len(cals))
	for i, c := range cals {
		calWalls[i] = c.d
	}
	rep.note("calibration run: median %v over %d runs (reference %v)", medianDuration(calWalls).Round(time.Microsecond), len(cals), calibRef)
	// The raw figures are printed, not reported: the host's slow phases
	// move them between runs by about the largest bound BENCHMARK.json
	// allows.
	rep.note("raw latency_p50_ms=%.4g over %d requests; raw latency_tail_ms=%.4g ms at p%g: %d request latencies lie beyond it",
		quantile(lats, 0.5), len(lats), tail, p, beyond)
	rep.note("raw ops_per_s=%.4g, raw throughput_gflops=%.4g (computed FLOPs per wall second of traffic)",
		float64(okOps)/traffic, w.opFlops()*float64(okOps)/traffic/1e9)
	rep.note("setup_s is the median of %d set-ups at the reference speed; raw %v", len(setups), roundAll(setups))
	return rep, nil
}

// sample is one timed request or calibration run.
type sample struct {
	end time.Duration // since the traffic started
	key string        // a plan-cold request's schedule
	d   time.Duration // its wall time
}

// atReference returns every request's latency in ms, raw and at the
// reference speed: scaled by the median calibration run of the
// calibWindow in which the request ended. A calibration run follows every
// request, so that window always holds one.
func atReference(timed, cals []sample) (raw, ref []float64) {
	byWindow := map[int][]time.Duration{}
	for _, c := range cals {
		i := int(c.end / calibWindow)
		byWindow[i] = append(byWindow[i], c.d)
	}
	for _, t := range timed {
		raw = append(raw, ms(t.d))
		ref = append(ref, ms(scaled(t.d, medianDuration(byWindow[int(t.end/calibWindow)]))))
	}
	return raw, ref
}

// typical summarizes the requests' values xs. Every request of a run
// workload is the same work, so it is their median. plan-cold's requests
// are 198 different compiles whose costs span 30×, and the median of such
// a mix jumps between neighbouring schedules; there each schedule's median
// over the passes stands for it and the figure is the mean over the
// schedules: the cost of one pass over the space, per request.
func typical(timed []sample, xs []float64) float64 {
	bySched := map[string][]float64{}
	for i, t := range timed {
		if t.key == "" {
			return median(xs)
		}
		bySched[t.key] = append(bySched[t.key], xs[i])
	}
	sum := 0.0
	for _, v := range bySched {
		sum += median(v)
	}
	return sum / float64(len(bySched))
}

// drive calls step until the steps have taken the given time. On
// plan-cold it steps in whole passes over the schedule space (a seeded draw
// without replacement per pass), calling restart between passes so every
// pass starts on fresh servers and every request misses the plan cache;
// restarts are not timed; it makes at least minPasses passes. step gets
// the pass number (0 on the run workloads). It returns the time spent
// stepping.
func drive(w *workload, d time.Duration, minPasses int, restart func() error, step func(pass int, sched string)) (time.Duration, error) {
	var active time.Duration
	if w.cold == nil {
		t := time.Now()
		for time.Since(t) < d {
			step(0, "")
		}
		return time.Since(t), nil
	}
	for pass := 0; active < d || pass < minPasses; pass++ {
		if pass > 0 {
			if err := restart(); err != nil {
				return active, err
			}
		}
		t := time.Now()
		for _, sched := range w.cold.perm() {
			step(pass, sched)
		}
		active += time.Since(t)
	}
	return active, nil
}

// heapSampler records the highest Go heap (live and not yet swept objects)
// seen in each calibWindow while it runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []float64)}
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		var peaks []float64
		for {
			i := int(time.Since(start) / calibWindow)
			for len(peaks) <= i {
				peaks = append(peaks, 0)
			}
			peaks[i] = max(peaks[i], float64(readMetric("/memory/classes/heap/objects:bytes")))
			select {
			case <-h.stopc:
				h.done <- peaks
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median over the windows of each
// window's peak: the heap's high-water mark, GC cycle after GC cycle,
// without letting one late collection decide the figure.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	var peaks []float64
	for _, p := range <-h.done {
		if p > 0 {
			peaks = append(peaks, p)
		}
	}
	return median(peaks)
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(time.Millisecond)
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailLadder is the percentiles latency_tail_ms chooses from: one per
// order of magnitude, so the choice holds still while a run's sample
// count varies by a few percent.
var tailLadder = []float64{99.9, 99, 90, 50}

// tailPercentile picks the highest ladder percentile with at least ten
// samples beyond it and returns it, its value, and that sample count
// (sorted must be non-empty; with fewer than 20 samples it falls back to
// the median).
func tailPercentile(sorted []float64) (p, value float64, beyond int) {
	for _, p := range tailLadder {
		i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
		if b := len(sorted) - 1 - i; b >= 10 || p == 50 {
			return p, sorted[max(i, 0)], b
		}
	}
	panic("unreachable: the ladder ends at the median")
}
