// Command perfbench is the repository's benchmark: it starts serve.New in
// process over loopback, drives one workload through POST /v1/run or POST
// /v1/execute from a single closed-loop client, checks every answer
// against the reference interpreter, and prints each metric by name and
// unit, ending with one JSON line. See README.md for the workloads and
// metrics.
//
//	perfbench --workload gemm-wire --seed 1 --seconds 16 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the traced run that reports the per-layer metrics and writes its spans
// as Chrome trace_event JSON (--trace-out).
//
// The process runs on one P (GOMAXPROCS=1): client, server and the legion
// drain share a single running thread, so a request's latency is its own
// work and not how the host schedules several threads at once. The drain's
// worker pool is therefore off
// (min(GOMAXPROCS, 16) = 1 worker). The end-to-end timings are scaled to
// a reference host speed by a calibration kernel run between requests
// (calib.go).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var o options
	var trace int
	var secs float64
	flag.StringVar(&o.workload, "workload", gemmWire, "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&secs, "seconds", 16, "seconds of measured traffic")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of the traced run (default .bench_build/traces/<workload>-seed<seed>.json)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	runtime.GOMAXPROCS(1)
	o.setups, o.setupFor = 3, time.Second
	o.seconds = time.Duration(secs * float64(time.Second))
	if o.trace && o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/traces/%s-seed%d.json", o.workload, o.seed)
	}

	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, secs, trace)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, d := range rep.defs {
		if m, ok := rep.Metrics[d.name]; ok {
			fmt.Printf("  %-24s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", o.workload, rep.firstErr)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run measures one workload: the end-to-end metrics, or with o.trace the
// per-layer metrics. A report whose every op failed carries no metrics.
func run(ctx context.Context, o options) (*report, error) {
	if o.trace {
		return measureLayers(ctx, o)
	}
	return measureEndToEnd(ctx, o)
}
