package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/obs"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// HotpathRow is one host-side hot-path measurement: the best-of-N wall time
// of a compile or execute path the serving session exercises. These rows
// ride along in `distal-bench -json` output so the PR-to-PR trajectory
// records kernel and compiler speedups, not only simulated workload
// metrics.
type HotpathRow struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
	Runs int     `json:"runs"`
}

// hotpathCase is one named measurement target.
type hotpathCase struct {
	name string
	f    func() error
}

// Hotpath measures the paths pinned by the hot-path benchmarks
// (hotpath_bench_test.go) in-process: multi-launch and single-launch
// compilation, a cold simulated execute, and validated (Real-mode)
// execution through both the compiled kernel program and the tree-walking
// fallback. Each measurement is the best of runs attempts.
func Hotpath(runs int) ([]HotpathRow, error) {
	if runs <= 0 {
		runs = 3
	}
	johnson, err := algorithms.Matmul(algorithms.Johnson, algorithms.MatmulConfig{
		N: 4096, Procs: 512, ProcsPerNode: 4, GPU: true,
	})
	if err != nil {
		return nil, err
	}
	summa, err := algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{
		N: 8192, Procs: 256, ProcsPerNode: 4, GPU: true, ChunkSize: 256,
	})
	if err != nil {
		return nil, err
	}
	realIn := func(tree bool) (core.Input, error) {
		in, err := algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{
			N: 128, Procs: 16, ChunkSize: 32,
		})
		in.TreeKernel = tree
		return in, err
	}
	// The real rows bind one data set, allocated once outside the timed
	// closures.
	realOpt := func(in core.Input) legion.Options {
		return legion.Options{Params: sim.LassenCPU(), Real: true, Batch: []map[string]*tensor.Dense{algorithms.Data(in, 7)}}
	}

	best := func(f func() error) (float64, error) {
		b := math.Inf(1)
		for i := 0; i < runs; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if d := float64(time.Since(t0).Microseconds()) / 1e3; d < b {
				b = d
			}
		}
		return b, nil
	}
	compileOnly := func(in core.Input) func() error {
		return func() error { _, err := core.Compile(in); return err }
	}
	execute := func(in core.Input, opt legion.Options) func() error {
		return func() error {
			prog, err := core.Compile(in)
			if err != nil {
				return err
			}
			_, err = legion.Run(prog, opt)
			return err
		}
	}
	// executeTraced is the same work under a live obs trace — every span the
	// serve layer would record (run-stage, launch, real-drain) actually
	// allocates and timestamps. The gap to the untraced row is the
	// instrumentation overhead the obs-overhead gate bounds.
	executeTraced := func(in core.Input, opt legion.Options) func() error {
		return func() error {
			tr, ctx := obs.NewTrace(context.Background(), obs.NewRequestID(), "bench")
			prog, err := core.CompileContext(ctx, in)
			if err != nil {
				return err
			}
			_, err = legion.RunContext(ctx, prog, opt)
			tr.Finish()
			return err
		}
	}

	realCompiled, err := realIn(false)
	if err != nil {
		return nil, err
	}
	realTree, err := realIn(true)
	if err != nil {
		return nil, err
	}
	cases := []hotpathCase{
		{"compile-summa16x16seq", compileOnly(summa)},
		{"compile-johnson8x8x8", compileOnly(johnson)},
		{"cold-execute-sim", execute(johnson, legion.Options{Params: sim.LassenGPU()})},
		{"cold-execute-real", execute(realCompiled, realOpt(realCompiled))},
		{"cold-execute-real-tree", execute(realTree, realOpt(realTree))},
		{"blocked-matmul-ref", blockedMatmulRef(128, 32)},
	}
	batchCases, err := batchHotpath()
	if err != nil {
		return nil, fmt.Errorf("hotpath batch setup: %w", err)
	}
	cases = append(cases, batchCases...)
	wireCases, closeWire, err := wireHotpath()
	if err != nil {
		return nil, fmt.Errorf("hotpath wire setup: %w", err)
	}
	defer closeWire()
	cases = append(cases, wireCases...)
	chainCases, closeChain, err := chainHotpath()
	if err != nil {
		return nil, fmt.Errorf("hotpath chain setup: %w", err)
	}
	defer closeChain()
	cases = append(cases, chainCases...)
	var rows []HotpathRow
	for _, c := range cases {
		ms, err := best(c.f)
		if err != nil {
			return nil, fmt.Errorf("hotpath %s: %w", c.name, err)
		}
		rows = append(rows, HotpathRow{Name: c.name, MS: ms, Runs: runs})
	}
	disabled, overhead, pairRuns, err := obsOverhead(runs, realCompiled, realOpt(realCompiled), executeTraced)
	if err != nil {
		return nil, fmt.Errorf("hotpath obs-overhead: %w", err)
	}
	rows = append(rows,
		HotpathRow{Name: "obs-disabled", MS: disabled, Runs: pairRuns},
		HotpathRow{Name: "obs-overhead", MS: overhead, Runs: pairRuns},
	)
	return rows, nil
}

// obsOverhead measures the wall-time cost of live tracing on the real-execute
// path: the cold-execute-real workload with obs.SetDisabled(true) (the kill
// switch — every obs.Start no-ops) versus the same workload under an active
// span tree, exactly what a traced /v1/run records.
//
// The gate on these rows demands <=2%, far below ambient-load noise when the
// two sides are timed in separate passes, so the measurement is paired: each
// attempt times a back-to-back block of each variant under the same load, and
// the overhead estimate is the lower-quartile per-attempt delta (clamped at
// zero). A genuine constant instrumentation cost shifts the entire delta
// distribution, quartile included; load waves only add positive outliers,
// which the low quartile ignores. Reported per execution, so obs-disabled is
// directly comparable to the cold-execute-real row.
func obsOverhead(runs int, in core.Input, opt legion.Options,
	executeTraced func(core.Input, legion.Options) func() error) (disabledMS, overheadMS float64, attempts int, err error) {
	const block = 4 // executions per timed attempt
	attempts = max(4*runs, 16)
	offF := func() error {
		obs.SetDisabled(true)
		defer obs.SetDisabled(false)
		for i := 0; i < block; i++ {
			prog, err := core.Compile(in)
			if err != nil {
				return err
			}
			if _, err := legion.Run(prog, opt); err != nil {
				return err
			}
		}
		return nil
	}
	tracedOnce := executeTraced(in, opt)
	onF := func() error {
		for i := 0; i < block; i++ {
			if err := tracedOnce(); err != nil {
				return err
			}
		}
		return nil
	}
	bestOff := math.Inf(1)
	deltas := make([]float64, 0, attempts)
	for i := 0; i < attempts; i++ {
		t0 := time.Now()
		if err := offF(); err != nil {
			return 0, 0, 0, err
		}
		off := float64(time.Since(t0).Microseconds()) / 1e3
		t0 = time.Now()
		if err := onF(); err != nil {
			return 0, 0, 0, err
		}
		on := float64(time.Since(t0).Microseconds()) / 1e3
		if off < bestOff {
			bestOff = off
		}
		deltas = append(deltas, on-off)
	}
	sort.Float64s(deltas)
	delta := math.Max(0, deltas[len(deltas)/4])
	return bestOff / block, (bestOff + delta) / block, attempts, nil
}

// blockedMatmulRef is the throughput yardstick for cold-execute-real: a
// hand-written cache-blocked n x n matmul (a = b*c, block x block tiles,
// accumulation order matching the tiled schedules) with no compiler, no
// executor, and no cost model in the loop. The gap between this row and
// cold-execute-real is the end-to-end overhead of compiling, pricing, and
// dispatching the same multiply through the full stack. Buffers are
// allocated once outside the timed closure; the output is re-zeroed per run
// so every attempt does identical work.
func blockedMatmulRef(n, block int) func() error {
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range b {
		b[i] = float64(i%7) + 0.25
		c[i] = float64(i%5) + 0.5
	}
	return func() error {
		for i := range a {
			a[i] = 0
		}
		for ib := 0; ib < n; ib += block {
			for jb := 0; jb < n; jb += block {
				for kb := 0; kb < n; kb += block {
					for i := ib; i < ib+block; i++ {
						for j := jb; j < jb+block; j++ {
							acc := a[i*n+j]
							for k := kb; k < kb+block; k++ {
								acc += b[i*n+k] * c[k*n+j]
							}
							a[i*n+j] = acc
						}
					}
				}
			}
		}
		if a[0] == math.Inf(1) {
			return fmt.Errorf("blocked matmul overflow") // keeps the loop observable
		}
		return nil
	}
}

// DiffHotpath checks hot-path improvement requirements. A plain "name"
// requirement compares against the baseline: the current row's wall time
// must be at most factor times the baseline row's (factor 0.8 demands a 20%
// improvement; 1.0 demands no-worse). An "a<b" requirement compares two rows
// of the current run against each other: row a must be at most factor times
// row b (e.g. batch-run-8<seq-run-8 with factor 0.9 demands the batched walk
// beat eight sequential runs by 10%) — useful when the baseline predates one
// of the rows. Rows missing on either side fail the requirement — an
// improvement gate should never pass silently because a measurement
// disappeared. Returns one message per violated requirement.
func DiffHotpath(baseline, current []HotpathRow, required map[string]float64) []string {
	base := map[string]HotpathRow{}
	for _, r := range baseline {
		base[r.Name] = r
	}
	cur := map[string]HotpathRow{}
	for _, r := range current {
		cur[r.Name] = r
	}
	names := make([]string, 0, len(required))
	for name := range required {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations []string
	for _, name := range names {
		factor := required[name]
		if fast, slow, intra := strings.Cut(name, "<"); intra {
			a, okA := cur[fast]
			b, okB := cur[slow]
			switch {
			case !okA:
				violations = append(violations, fmt.Sprintf("hotpath %s: missing from current run", fast))
			case !okB:
				violations = append(violations, fmt.Sprintf("hotpath %s: missing from current run", slow))
			case a.MS > b.MS*factor:
				violations = append(violations, fmt.Sprintf(
					"hotpath %s: %.2fms vs %s's %.2fms (need <= %.2fms, factor %.2f)",
					fast, a.MS, slow, b.MS, b.MS*factor, factor))
			}
			continue
		}
		b, okB := base[name]
		c, okC := cur[name]
		switch {
		case !okB:
			violations = append(violations, fmt.Sprintf("hotpath %s: missing from baseline", name))
		case !okC:
			violations = append(violations, fmt.Sprintf("hotpath %s: missing from current run", name))
		case c.MS > b.MS*factor:
			violations = append(violations, fmt.Sprintf(
				"hotpath %s: %.2fms -> %.2fms (need <= %.2fms, factor %.2f)",
				name, b.MS, c.MS, b.MS*factor, factor))
		}
	}
	return violations
}

// DiffMetrics compares a fresh metrics run against a baseline and returns
// one message per regression. Simulated makespans are deterministic and
// compared row by row against tol (e.g. 0.20 for 20%). Host-side compile
// and simulate times are wall-clock: noisy at sub-millisecond scale and
// recorded on whatever hardware produced the baseline, so they are
// compared as totals across all shared rows against the separate wallTol
// (pass a generous value — e.g. 1.0 for 2x — when the baseline was
// recorded on different hardware than the current run). Rows present on
// only one side are ignored (the trajectory may add workloads).
func DiffMetrics(baseline, current []MetricRow, tol, wallTol float64) []string {
	type key struct{ exp, cfg string }
	base := map[key]MetricRow{}
	for _, r := range baseline {
		base[key{r.Experiment, r.Config}] = r
	}
	var regressions []string
	var baseCompile, curCompile, baseSim, curSim float64
	shared := 0
	for _, r := range current {
		b, ok := base[key{r.Experiment, r.Config}]
		if !ok {
			continue
		}
		shared++
		baseCompile += b.CompileMS
		curCompile += r.CompileMS
		baseSim += b.SimulateMS
		curSim += r.SimulateMS
		if b.MakespanSec > 0 && r.MakespanSec > b.MakespanSec*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s: makespan %.4fs -> %.4fs (+%.1f%%)",
				r.Experiment, r.Config, b.MakespanSec, r.MakespanSec,
				100*(r.MakespanSec/b.MakespanSec-1)))
		}
		if b.OOM != r.OOM {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s: OOM changed %v -> %v", r.Experiment, r.Config, b.OOM, r.OOM))
		}
	}
	if shared == 0 {
		return []string{"no shared rows between baseline and current metrics"}
	}
	if baseCompile > 0 && curCompile > baseCompile*(1+wallTol) {
		regressions = append(regressions, fmt.Sprintf(
			"total compile time %.1fms -> %.1fms (+%.1f%%)",
			baseCompile, curCompile, 100*(curCompile/baseCompile-1)))
	}
	if baseSim > 0 && curSim > baseSim*(1+wallTol) {
		regressions = append(regressions, fmt.Sprintf(
			"total simulate time %.1fms -> %.1fms (+%.1f%%)",
			baseSim, curSim, 100*(curSim/baseSim-1)))
	}
	return regressions
}
