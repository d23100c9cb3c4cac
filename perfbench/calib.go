package main

import (
	"sort"
	"time"
)

// The shared host this benchmark runs on changes speed by up to 1.9× in
// phases of seconds to minutes, as neighbours load the cores it shares: a
// 16 s run can sit wholly in a fast or a slow phase, so raw medians of the
// same code moved by 15–30% between runs. The benchmark therefore runs a
// fixed calibration kernel of its own after every request and scales the
// declared timings to the reference speed at which one kernel run takes
// calibRef. The kernel is this package's code, never the program's, so a
// change to the program cannot speed it up or slow it down.
//
// What scaling cannot see is work the program would do in the background
// while the kernel runs: such work slows request and kernel alike.
const calibRef = time.Millisecond

// calibWindow is the stretch of traffic whose kernel runs scale the
// requests that end in it.
const calibWindow = time.Second

// calibrator holds the kernel's buffers, so a run allocates nothing and
// gives the garbage collector no work of its own.
type calibrator struct {
	m       map[int]int
	a, b, c []float64
}

// The kernel's two halves, each about half of calibRef on an idle core of
// the 2-vCPU Xeon host the benchmark was sized on: calibOps map updates,
// and a dense calibN³ matrix multiply.
const (
	calibOps = 27500
	calibN   = 80
)

func newCalibrator() *calibrator {
	k := &calibrator{
		m: make(map[int]int, 1024),
		a: make([]float64, calibN*calibN),
		b: make([]float64, calibN*calibN),
		c: make([]float64, calibN*calibN),
	}
	for i := range k.a {
		k.a[i], k.b[i] = float64(i%7), float64(i%5)
	}
	return k
}

// calibSink keeps the kernel's results live.
var calibSink float64

// run executes the kernel once and returns its wall time. Its halves
// follow the two kinds of work the program does: map updates — hashing,
// branches, loads — like the compiler, the server and the interpreted
// kernel loop, and multiply-add rows like the drain's GEMM kernels. In
// fast phases the host speeds the two up by different amounts, and each
// half alone mis-scaled one kind of workload: a map-only kernel read
// gemm-wire 20% slow in a fast phase, a multiply-only one read
// chain-batch 8% fast.
func (k *calibrator) run() time.Duration {
	t0 := time.Now()
	clear(k.m)
	for i := 0; i < calibOps; i++ {
		k.m[i*7%1000] += i
	}
	clear(k.c)
	for i := 0; i < calibN; i++ {
		row := k.c[i*calibN : (i+1)*calibN]
		for l := 0; l < calibN; l++ {
			x := k.a[i*calibN+l]
			for j, y := range k.b[l*calibN : (l+1)*calibN] {
				row[j] += x * y
			}
		}
	}
	calibSink += float64(k.m[7]) + k.c[calibN+1]
	return time.Since(t0)
}

// speed is the median of several kernel runs.
func (k *calibrator) speed(runs int) time.Duration {
	ds := make([]time.Duration, runs)
	for i := range ds {
		ds[i] = k.run()
	}
	return medianDuration(ds)
}

// scaled is d at the reference speed, given the kernel's time cal measured
// alongside it.
func scaled(d, cal time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibRef) / float64(cal))
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
