package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"distal"
	"distal/internal/ir"
	"distal/internal/schedule"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// perLayer lists the traced run's metrics, in print order. Every timed row
// also reports <row>.calls and <row>.failed.
var perLayer = []metricDef{
	{"trace.e2e_ms", "ms"},
	{"trace.e2e.calls", "count"},
	{"trace.e2e.failed", "count"},
	{"trace.overhead_pct", "%"},
	{"serve.residual_ms", "ms"},
	{"serve.residual_share", "ratio"},
	{"legion.drain_ms", "ms"},
	{"legion.drain_gflops", "GFLOP/s"},
	{"legion.drain.calls", "count"},
	{"legion.drain.failed", "count"},
	{"legion.simulate_ms", "ms"},
	{"legion.simulate.calls", "count"},
	{"legion.simulate.failed", "count"},
	{"legion.copies", "count"},
	{"legion.inter_bytes", "bytes"},
	{"core.compile_ms", "ms"},
	{"core.compile.calls", "count"},
	{"core.compile.failed", "count"},
	{"core.points", "count"},
	{"core.launches", "count"},
	{"core.us_per_point", "us"},
	{"ir.parse_us", "us"},
	{"ir.parse.calls", "count"},
	{"ir.parse.failed", "count"},
	{"distnot.parse_us", "us"},
	{"distnot.parse.calls", "count"},
	{"distnot.parse.failed", "count"},
	{"schedule.replay_us", "us"},
	{"schedule.replay.calls", "count"},
	{"schedule.replay.failed", "count"},
	{"session.lookup_us", "us"},
	{"session.lookup.calls", "count"},
	{"session.lookup.failed", "count"},
	{"session.hit_ratio", "ratio"},
	{"wire.encode_ms", "ms"},
	{"wire.encode.calls", "count"},
	{"wire.encode.failed", "count"},
	{"wire.decode_ms", "ms"},
	{"wire.decode.calls", "count"},
	{"wire.decode.failed", "count"},
	{"wire.gbps", "GB/s"},
	{"wire.bytes_per_op", "bytes"},
	{"program.stages", "count"},
	{"program.repartitions", "count"},
	{"tensor.fill_ms", "ms"},
	{"tensor.fill.calls", "count"},
	{"tensor.fill.failed", "count"},
}

// compileProbes is how many cold compiles the traced run of a warm
// workload makes for its front-end and core rows.
const compileProbes = 5

// layerSums accumulates the replay's non-timing facts.
type layerSums struct {
	copies, interBytes float64 // per simulate call
	simulates          int
	points, launches   float64 // per cold compile
	compiles           int
	stages, reparts    int
}

// measureLayers is the traced run: requests are sent with tracing off and
// inside an "e2e" span, and each traced request is then replayed in
// process through each layer's public functions under the benchmark's own
// spans. It reports every per-layer metric.
func measureLayers(ctx context.Context, o options) (*report, error) {
	o.setups, o.setupFor = 1, 0 // the traced run reports no setup_s
	w, e, _, _, err := setupRun(ctx, o, newCalibrator())
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }()

	rep := newReport(perLayer)
	rec := newRecorder()
	var (
		sums             layerSums
		untraced, traced []float64
		ops              int
	)
	restart := func() (err error) {
		e.close()
		e, err = startEnv(w, o.wrap)
		return err
	}
	// On the run workloads every op sends the request untraced, then
	// traced. On plan-cold a request must miss the plan cache, so passes
	// alternate instead: even passes untraced, odd passes traced, each on
	// a fresh server.
	active, err := drive(w, o.seconds, 2, restart, func(pass int, sched string) {
		i := ops
		ops++
		if w.run != nil || pass%2 == 0 {
			rep.Attempted += w.batch()
			t0 := time.Now()
			_, bad, err := w.send(ctx, e.cl, nil, i, -1, sched)
			if err != nil {
				rep.fail(bad, err)
				return
			}
			untraced = append(untraced, ms(time.Since(t0)))
			if w.run == nil {
				return
			}
		}
		rep.Attempted += w.batch()
		root := rec.start("e2e", i, -1)
		_, bad, err := w.send(ctx, e.cl, rec, i, root, sched)
		rec.end(root, err)
		if err != nil {
			rep.fail(bad, err)
			return
		}
		traced = append(traced, ms(rec.spans[root].end-rec.spans[root].start))
		if w.cold != nil {
			err = replayCold(ctx, w, rec, i, &sums, sched)
		} else {
			err = replayRun(ctx, w, e, rec, i, &sums)
		}
		if err != nil {
			rep.fail(w.batch(), err)
		}
	})
	if err != nil {
		return nil, err
	}
	if w.run != nil {
		for p := 0; p < compileProbes; p++ {
			root := rec.start("probe", ops+p, -1)
			err := replayCompile(ctx, w, rec, ops+p, root, &sums, w.run.req, w.run.stmts, w.run.schedules, w.run.formats)
			rec.end(root, err)
			if err != nil {
				rep.fail(0, err)
			}
		}
	}
	cs := e.sess.CacheStats()

	rep.Correct = rep.Failed == 0 && rep.firstErr == nil
	if o.traceOut != "" {
		if err := rec.writeChrome(o.traceOut); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		rep.note("trace: %d spans written to %s", len(rec.spans), o.traceOut)
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return rep, nil
	}
	layerMetrics(rep, w, rec, len(traced), sums, cs)
	rep.set("trace.overhead_pct", (median(traced)-median(untraced))/median(untraced)*100)
	rep.note("ops=%d (untraced and traced) failed=%d traced_requests=%d timed_s=%.3f",
		rep.Attempted, rep.Failed, len(traced), active.Seconds())
	return rep, nil
}

// layerMetrics turns the spans into the per-layer rows. Rows on the
// request path are per op; the front-end and core rows of a warm workload
// come from the compile probes and are per cold compile.
func layerMetrics(rep *report, w *workload, rec *recorder, ops int, sums layerSums, cs distal.CacheStats) {
	tot := rec.totals()
	get := func(name string) *layerTotals {
		if t := tot[name]; t != nil {
			return t
		}
		return &layerTotals{}
	}
	self := func(name string) float64 { return ms(get(name).self) }
	counts := func(row, span string) {
		rep.set(row+".calls", float64(get(span).calls))
		rep.set(row+".failed", float64(get(span).failed))
	}
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	for _, row := range []string{"ir.parse", "distnot.parse", "schedule.replay", "session.lookup",
		"wire.encode", "wire.decode", "tensor.fill", "legion.simulate", "core.compile"} {
		counts(row, row)
	}
	counts("legion.drain", "legion.run")
	counts("trace.e2e", "e2e")

	e2e := per(ms(rec.duration("e2e")), ops)
	compiles := sums.compiles
	fe := self("ir.parse") + self("distnot.parse") + self("schedule.replay")
	rep.set("trace.e2e_ms", e2e)
	rep.set("ir.parse_us", per(self("ir.parse"), compiles)*1000)
	rep.set("distnot.parse_us", per(self("distnot.parse"), compiles)*1000)
	rep.set("schedule.replay_us", per(self("schedule.replay"), compiles)*1000)
	rep.set("core.compile_ms", per(self("core.compile")-fe, compiles))
	rep.set("core.points", per(sums.points, compiles))
	rep.set("core.launches", per(sums.launches, compiles))
	rep.set("core.us_per_point", per(self("core.compile")-fe, compiles)*1000/per(sums.points, compiles))
	rep.set("legion.simulate_ms", per(self("legion.simulate"), ops))
	rep.set("legion.copies", per(sums.copies, sums.simulates))
	rep.set("legion.inter_bytes", per(sums.interBytes, sums.simulates))
	rep.set("session.lookup_us", per(self("session.lookup"), get("session.lookup").calls)*1000)
	if hm := cs.Hits + cs.Misses; hm > 0 {
		rep.set("session.hit_ratio", float64(cs.Hits)/float64(hm))
	} else {
		rep.set("session.hit_ratio", 0)
	}
	rep.set("tensor.fill_ms", per(self("tensor.fill"), ops))
	rep.set("wire.encode_ms", per(self("wire.encode"), ops))
	rep.set("wire.decode_ms", per(self("wire.decode"), ops))
	rep.set("program.stages", float64(sums.stages))
	rep.set("program.repartitions", float64(sums.reparts))

	if w.cold != nil {
		// Every op compiles cold; nothing executes and no frame moves.
		rep.set("legion.drain_ms", 0)
		rep.set("legion.drain_gflops", 0)
		rep.set("wire.gbps", 0)
		rep.set("wire.bytes_per_op", 0)
		rep.path = []string{"ir.parse_us", "distnot.parse_us", "schedule.replay_us", "core.compile_ms", "legion.simulate_ms"}
	} else {
		drain := per(self("legion.run")-self("legion.simulate"), ops)
		rep.set("legion.drain_ms", drain)
		if drain > 0 {
			rep.set("legion.drain_gflops", w.run.flopsPerInst*float64(w.run.batch)/(drain/1000)/1e9)
		} else {
			rep.set("legion.drain_gflops", 0)
		}
		codec := (self("wire.encode") + self("wire.decode")) / 1000 / float64(ops)
		if codec > 0 {
			// Each frame byte is encoded once and decoded once per op.
			rep.set("wire.gbps", 2*w.run.frameBytes/codec/1e9)
		} else {
			rep.set("wire.gbps", 0)
		}
		rep.set("wire.bytes_per_op", w.run.frameBytes)
		rep.path = []string{"wire.encode_ms", "wire.decode_ms", "session.lookup_us", "tensor.fill_ms", "legion.simulate_ms", "legion.drain_ms"}
	}
	onPath := 0.0
	for _, row := range rep.path {
		onPath += rowMS(rep, row)
	}
	rep.set("serve.residual_ms", e2e-onPath)
	rep.set("serve.residual_share", (e2e-onPath)/e2e)
}

// rowMS reads a time row in milliseconds.
func rowMS(rep *report, row string) float64 {
	m := rep.Metrics[row]
	if m.Unit == "us" {
		return m.Value / 1000
	}
	return m.Value
}

// replayRun replays one /v1/run request through the layers the server
// calls, in its order: decode the request's input frames, resolve the plan
// through the server's own (warm) session, fill the server-side tensors,
// run the plan on every instance, simulate it (interleaved, so drain = run
// minus simulate on the same plan), and encode the response frames.
func replayRun(ctx context.Context, w *workload, e *env, rec *recorder, op int, sums *layerSums) error {
	rc := w.run
	root := rec.start("replay", op, -1)
	err := func() error {
		decoded := map[string]*tensor.Dense{}
		if rc.framed {
			r := bytes.NewReader(e.cl.req.Bytes())
			if _, err := wire.ReadJSONSection(r); err != nil {
				return err
			}
			sp := rec.start("wire.decode", op, root)
			var err error
			for _, name := range rc.names {
				if rc.inputs[name] != wire.FillWire {
					continue
				}
				var t *tensor.Dense
				if t, err = wire.DecodeLimit(r, elemCount(rc.shapes[name])); err != nil {
					break
				}
				decoded[name] = t.Rename(name)
			}
			rec.end(sp, err)
			if err != nil {
				return err
			}
		}

		sp := rec.start("session.lookup", op, root)
		x, err := resolve(ctx, e.sess, rc.req)
		rec.end(sp, err)
		if err != nil {
			return err
		}

		sp = rec.start("tensor.fill", op, root)
		insts := make([][]*distal.Tensor, rc.batch)
		for i := range insts {
			for _, name := range x.names {
				data := decoded[name]
				if data == nil {
					data = tensor.New(name, x.shape(name)...)
					if err = wire.ApplyFillInstance(data, rc.inputs[name], i); err != nil {
						break
					}
				}
				insts[i] = append(insts[i], &distal.Tensor{Name: name, Shape: data.Shape(), Data: data})
			}
		}
		rec.end(sp, err)
		if err != nil {
			return err
		}

		sp = rec.start("legion.run", op, root)
		outs, err := x.run(ctx, insts)
		rec.end(sp, err)
		if err != nil {
			return err
		}
		if bad := checkOutputs(outs, rc.refs); bad > 0 {
			rec.fail(sp)
			return fmt.Errorf("replay: %d of %d outputs differ from the reference", bad, rc.batch)
		}

		sp = rec.start("legion.simulate", op, root)
		res, err := x.simulate(ctx)
		rec.end(sp, err)
		if err != nil {
			return err
		}
		sums.copies += float64(res.Copies)
		sums.interBytes += float64(res.InterBytes)
		sums.simulates++
		sums.stages, sums.reparts = x.stages, x.reparts

		var buf bytes.Buffer
		sp = rec.start("wire.encode", op, root)
		for _, out := range outs {
			if err = wire.Encode(&buf, out); err != nil {
				break
			}
		}
		rec.end(sp, err)
		return err
	}()
	rec.end(root, err)
	return err
}

// replayCold replays one plan-cold request: the front end and a cold
// compile on a fresh session (the request path), then — off the path — a
// warm lookup of the same request, and the simulate the server runs.
func replayCold(ctx context.Context, w *workload, rec *recorder, op int, sums *layerSums, sched string) error {
	cc := w.cold
	root := rec.start("replay", op, -1)
	formats := []string{cc.formats["A"], cc.formats["B"], cc.formats["C"]}
	err := replayCompile(ctx, w, rec, op, root, sums, cc.request(sched), []string{cc.stmt}, []string{sched}, formats)
	rec.end(root, err)
	return err
}

// replayCompile times the compile front end — statement parse, format
// parse, schedule replay — then a cold compile of req on a fresh session.
// On plan-cold it continues as the server does: a warm lookup of the same
// request (off the path) and the plan's simulate.
func replayCompile(ctx context.Context, w *workload, rec *recorder, op, parent int, sums *layerSums,
	req distal.Request, stmts, schedules, formats []string) error {
	for i, stmt := range stmts {
		sp := rec.start("ir.parse", op, parent)
		a, err := ir.Parse(stmt)
		rec.end(sp, err)
		if err != nil {
			return err
		}
		sp = rec.start("schedule.replay", op, parent)
		_, err = schedule.FromText(a, schedules[i])
		rec.end(sp, err)
		if err != nil {
			return err
		}
	}
	for _, f := range formats {
		sp := rec.start("distnot.parse", op, parent)
		_, err := distal.ParseFormat(f)
		rec.end(sp, err)
		if err != nil {
			return err
		}
	}
	sess := w.newSession()
	sp := rec.start("core.compile", op, parent)
	x, err := resolve(ctx, sess, req)
	rec.end(sp, err)
	if err != nil {
		return err
	}
	sums.points += float64(x.stats.Points)
	sums.launches += float64(x.stats.Launches)
	sums.compiles++
	if w.cold == nil {
		return nil
	}
	sp = rec.start("session.lookup", op, parent)
	_, err = resolve(ctx, sess, req)
	rec.end(sp, err)
	if err != nil {
		return err
	}
	sp = rec.start("legion.simulate", op, parent)
	res, err := x.simulate(ctx)
	rec.end(sp, err)
	if err != nil {
		return err
	}
	sums.copies += float64(res.Copies)
	sums.interBytes += float64(res.InterBytes)
	sums.simulates++
	return nil
}

// resolved is a compiled single-statement plan or plan DAG behind one
// execution surface, as the server's /v1/run handler treats them.
type resolved struct {
	names           []string
	shape           func(name string) []int
	run             func(ctx context.Context, insts [][]*distal.Tensor) ([]*tensor.Dense, error)
	simulate        func(ctx context.Context) (*distal.Result, error)
	stats           distal.CompileStats
	stages, reparts int
}

// resolve compiles req through sess: Session.CompileProgram for a
// multi-statement request, Session.Compile otherwise.
func resolve(ctx context.Context, sess *distal.Session, req distal.Request) (*resolved, error) {
	if len(req.Stmts) > 0 {
		pp, err := sess.CompileProgram(ctx, req)
		if err != nil {
			return nil, err
		}
		return &resolved{
			names: pp.Inputs(),
			shape: pp.Shape,
			run: func(ctx context.Context, insts [][]*distal.Tensor) ([]*tensor.Dense, error) {
				bb := pp.BindBatch(insts...)
				if _, err := bb.Run(ctx); err != nil {
					return nil, err
				}
				return batchOutputs(bb.Len(), func(i int) *distal.Tensor { return bb.Output(i) })
			},
			simulate: func(ctx context.Context) (*distal.Result, error) { return pp.Simulate(ctx) },
			stats:    pp.Stats(),
			stages:   pp.Stages(),
			reparts:  pp.Repartitions(),
		}, nil
	}
	plan, err := sess.Compile(ctx, req)
	if err != nil {
		return nil, err
	}
	return &resolved{
		names: plan.Tensors(),
		shape: plan.Shape,
		run: func(ctx context.Context, insts [][]*distal.Tensor) ([]*tensor.Dense, error) {
			bb := plan.BindBatch(insts...)
			if _, err := bb.Run(ctx); err != nil {
				return nil, err
			}
			return batchOutputs(bb.Len(), func(i int) *distal.Tensor { return bb.Output(i) })
		},
		simulate: func(ctx context.Context) (*distal.Result, error) { return plan.Simulate(ctx) },
		stats:    plan.Stats(),
	}, nil
}

func batchOutputs(n int, output func(int) *distal.Tensor) ([]*tensor.Dense, error) {
	outs := make([]*tensor.Dense, n)
	for i := range outs {
		t := output(i)
		if t == nil {
			return nil, fmt.Errorf("instance %d lost its output tensor", i)
		}
		outs[i] = t.Data
	}
	return outs, nil
}
