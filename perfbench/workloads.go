package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"distal"
	"distal/internal/ir"
	"distal/internal/program"
	"distal/internal/schedule"
	"distal/internal/tensor"
	"distal/internal/tune"
	"distal/internal/wire"
)

// Workload names, as BENCHMARK.json and README.md list them.
const (
	gemmWire   = "gemm-wire"
	mttkrpWire = "mttkrp-wire"
	chainBatch = "chain-batch"
	planCold   = "plan-cold"
)

var workloadNames = []string{gemmWire, mttkrpWire, chainBatch, planCold}

// size selects a workload's problem size: full for the benchmark itself,
// tiny for the package tests.
type size int

const (
	full size = iota
	tiny
)

// workload is one generated traffic set: the machine its server models,
// and either a /v1/run case (run) or a /v1/execute schedule draw (cold).
type workload struct {
	machine func() *distal.Machine
	params  distal.Params
	run     *runCase
	cold    *coldCase
}

func (w *workload) newSession() *distal.Session {
	return distal.NewSession(w.machine(), distal.WithParams(w.params))
}

// batch is the number of ops one request carries.
func (w *workload) batch() int {
	if w.cold != nil {
		return 1
	}
	return w.run.batch
}

// opFlops is the statement FLOPs of one op: one planned request on
// plan-cold, one instance on the run workloads.
func (w *workload) opFlops() float64 {
	if w.cold != nil {
		return w.cold.stmtFlops
	}
	return w.run.flopsPerInst
}

// runCase is a /v1/run workload: one request sent over and over, with its
// wire-marked input frames and the reference output of every instance.
type runCase struct {
	req      distal.Request    // the compile request the server resolves
	envelope []byte            // the wire.RunRequest JSON
	framed   bool              // body is application/x-distal-run
	frames   []*tensor.Dense   // wire-marked inputs, in frame order
	names    []string          // tensors the server binds, in its order
	inputs   map[string]string // the envelope's per-tensor directives
	shapes   map[string][]int
	batch    int
	batched  bool // the envelope declares "batch"
	outShape []int
	refs     []*tensor.Dense // instance i's reference output
	// flopsPerInst is computed from the statements' shapes:
	// FlopsPerPoint times the iteration space, summed over statements.
	flopsPerInst float64
	// frameBytes is the computed size of every frame one request moves
	// (request inputs plus response outputs).
	frameBytes float64
	// front-end inputs for the compile probes.
	stmts     []string
	schedules []string
	formats   []string
}

// coldCase is the plan-cold workload: every schedule of a generated space,
// each sent once per pass so every request is a plan-cache miss.
type coldCase struct {
	stmt      string
	shapes    map[string][]int
	formats   map[string]string
	schedules []string // the whole space, in generation order
	warmup    distal.Request
	stmtFlops float64            // per request, computed from shapes
	maxFolds  map[string]float64 // per schedule: the most reduction folds it can add
	rng       *rand.Rand
}

// perm draws the next pass's order: a seeded draw without replacement
// from the whole space.
func (c *coldCase) perm() []string {
	out := make([]string, len(c.schedules))
	for i, j := range c.rng.Perm(len(c.schedules)) {
		out[i] = c.schedules[j]
	}
	return out
}

func (c *coldCase) request(sched string) distal.Request {
	return distal.Request{Stmt: c.stmt, Shapes: c.shapes, Formats: c.formats, Schedule: sched}
}

// buildWorkload generates a workload's inputs from seed and evaluates its
// reference outputs with the sequential interpreter. Everything the server
// sees — frames, fill seeds, schedule order — derives from seed.
func buildWorkload(name string, seed int64, sz size) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case gemmWire:
		n, grid, chunk := 256, 4, 64
		if sz == tiny {
			n, grid, chunk = 32, 2, 8
		}
		sched := fmt.Sprintf("divide(i,io,ii,%d) divide(j,jo,ji,%d) reorder(io,jo,ii,ji) distribute(io,jo) "+
			"split(k,ko,ki,%d) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C)", grid, grid, chunk)
		rc, err := framedCase(rng, "A(i,j) = B(i,k) * C(k,j)",
			map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}}, nil, sched)
		if err != nil {
			return nil, err
		}
		return &workload{params: distal.LassenCPU(), run: rc,
			machine: func() *distal.Machine { return distal.NewMachine(distal.CPU, grid, grid) }}, nil
	case mttkrpWire:
		// Ballard et al.'s MTTKRP as examples/mttkrp schedules it: B stays
		// in place on the processor cube, C and D are partitioned along
		// their contracted modes and replicated elsewhere.
		n, r, g := 48, 32, 2
		if sz == tiny {
			n, r = 8, 4
		}
		sched := fmt.Sprintf("divide(i,io,ii,%d) divide(j,jo,ji,%d) divide(k,ko,ki,%d) "+
			"reorder(io,jo,ko,ii,ji,ki,l) distribute(io,jo,ko) communicate(ko,A,B,C,D)", g, g, g)
		rc, err := framedCase(rng, "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
			map[string][]int{"A": {n, r}, "B": {n, n, n}, "C": {n, r}, "D": {n, r}},
			map[string]string{"A": "ab->a00", "B": "abc->abc", "C": "ab->*a*", "D": "ab->**a"}, sched)
		if err != nil {
			return nil, err
		}
		return &workload{params: distal.LassenCPU(), run: rc,
			machine: func() *distal.Machine { return distal.NewMachine(distal.CPU, g, g, g) }}, nil
	case chainBatch:
		n, k, grid, batch, chunk1, chunk2 := 256, 8, 4, 8, 8, 64
		if sz == tiny {
			n, k, grid, batch, chunk1, chunk2 = 32, 4, 2, 2, 4, 8
		}
		rc, err := chainCase(rng, n, k, grid, batch, chunk1, chunk2)
		if err != nil {
			return nil, err
		}
		return &workload{params: distal.LassenCPU(), run: rc,
			machine: func() *distal.Machine { return distal.NewMachine(distal.CPU, grid, grid) }}, nil
	case planCold:
		n, grid, ppn := 8192, 16, 4
		if sz == tiny {
			n, grid = 256, 2
		}
		m := func() *distal.Machine { return distal.NewMachine(distal.GPU, grid, grid).WithProcsPerNode(ppn) }
		cc, err := coldSpace(rng, n, m().Grid())
		if err != nil {
			return nil, err
		}
		return &workload{params: distal.LassenGPU(), cold: cc, machine: m}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// framedCase builds a single-statement /v1/run case whose every input
// rides as a seeded wire frame and whose output the server zero-fills.
func framedCase(rng *rand.Rand, stmt string, shapes map[string][]int, formats map[string]string, sched string) (*runCase, error) {
	a, err := ir.Parse(stmt)
	if err != nil {
		return nil, err
	}
	out := a.LHS.Tensor
	rc := &runCase{
		req:       distal.Request{Stmt: stmt, Shapes: shapes, Formats: formats, Schedule: sched},
		framed:    true,
		names:     a.TensorNames(),
		inputs:    map[string]string{},
		shapes:    shapes,
		batch:     1,
		outShape:  shapes[out],
		stmts:     []string{stmt},
		schedules: []string{sched},
	}
	data := map[string]*tensor.Dense{}
	for _, name := range rc.names {
		if name == out {
			continue
		}
		t := tensor.New(name, shapes[name]...)
		t.FillRandom(rng.Int63())
		data[name] = t
		rc.inputs[name] = wire.FillWire
		rc.frames = append(rc.frames, t)
		rc.frameBytes += frameSize(shapes[name])
	}
	for _, name := range rc.names {
		if f, ok := formats[name]; ok {
			rc.formats = append(rc.formats, f)
		}
	}
	rc.frameBytes += frameSize(rc.outShape)
	rc.flopsPerInst = statementFlops(a, shapes)
	ref, err := ir.Evaluate(a, data)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", stmt, err)
	}
	rc.refs = []*tensor.Dense{ref}
	rc.envelope, err = json.Marshal(wire.RunRequest{
		Stmt: stmt, Shapes: shapes, Formats: formats, Schedule: sched, Inputs: rc.inputs,
	})
	return rc, err
}

// chainCase builds the two-statement low-rank chain E = (A*B)*C as one
// batched JSON /v1/run: every leaf input is a server-side rand fill, and
// instance i of a "rand:<s>" fill draws from seed s+i.
func chainCase(rng *rand.Rand, n, k, grid, batch, chunk1, chunk2 int) (*runCase, error) {
	s1 := fmt.Sprintf("divide(i,io,ii,%d) divide(j,jo,ji,%d) reorder(io,jo,ii,ji) distribute(io,jo) "+
		"split(k,ko,ki,%d) reorder(io,jo,ko,ii,ji,ki) communicate(jo,D) communicate(ko,A,B)", grid, grid, chunk1)
	s2 := fmt.Sprintf("divide(i,io,ii,%d) divide(l,lo,li,%d) reorder(io,lo,ii,li) distribute(io,lo) "+
		"split(j,jo,ji,%d) reorder(io,lo,jo,ii,li,ji) communicate(lo,E) communicate(jo,D,C)", grid, grid, chunk2)
	specs := []program.Statement{
		{Stmt: "D(i,j) = A(i,k) * B(k,j)", Schedule: s1},
		{Stmt: "E(i,l) = D(i,j) * C(j,l)", Schedule: s2},
	}
	shapes := map[string][]int{"A": {n, k}, "B": {k, n}, "C": {n, k}}
	p, err := program.Parse(specs, shapes)
	if err != nil {
		return nil, err
	}
	rc := &runCase{
		names:    p.Inputs(),
		inputs:   map[string]string{},
		shapes:   shapes,
		batch:    batch,
		batched:  true,
		outShape: p.Shapes[p.Output()],
	}
	req := distal.Request{Shapes: shapes}
	var wspecs []wire.StmtSpec
	for _, st := range specs {
		req.Stmts = append(req.Stmts, distal.Statement{Stmt: st.Stmt, Schedule: st.Schedule})
		wspecs = append(wspecs, wire.StmtSpec{Stmt: st.Stmt, Schedule: st.Schedule})
		rc.stmts = append(rc.stmts, st.Stmt)
		rc.schedules = append(rc.schedules, st.Schedule)
	}
	rc.req = req
	// Per-tensor base seeds sit far enough apart that no instance offset
	// makes two tensors draw the same stream.
	seeds := map[string]int64{}
	for _, name := range rc.names {
		seeds[name] = rng.Int63n(1<<40) << 8
		rc.inputs[name] = fmt.Sprintf("rand:%d", seeds[name])
	}
	for _, st := range p.Stages {
		rc.flopsPerInst += statementFlops(st.Assign, p.Shapes)
	}
	rc.frameBytes = float64(batch) * frameSize(rc.outShape)
	for i := 0; i < batch; i++ {
		in := map[string]*tensor.Dense{}
		for _, name := range rc.names {
			t := tensor.New(name, shapes[name]...)
			t.FillRandom(seeds[name] + int64(i))
			in[name] = t
		}
		vals, err := program.Evaluate(p, in)
		if err != nil {
			return nil, fmt.Errorf("reference chain instance %d: %w", i, err)
		}
		rc.refs = append(rc.refs, vals[p.Output()])
	}
	rc.envelope, err = json.Marshal(wire.RunRequest{Shapes: shapes, Stmts: wspecs, Inputs: rc.inputs, Batch: &batch})
	return rc, err
}

// coldSpace enumerates every schedule tune.NewSpace generates for an n^3
// GEMM on the grid — the base tilings and every tiling's pipelines,
// canonicalized and deduplicated — so a pass over it is the full design
// space a schedule explorer would send.
func coldSpace(rng *rand.Rand, n int, grid []int) (*coldCase, error) {
	const stmt = "A(i,j) = B(i,k) * C(k,j)"
	a, err := ir.Parse(stmt)
	if err != nil {
		return nil, err
	}
	shapes := map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}}
	ext, err := a.VarExtents(shapes)
	if err != nil {
		return nil, err
	}
	sp, err := tune.NewSpace(a, ext, grid)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var all []string
	add := func(src string) {
		s, err := schedule.FromText(a, src)
		if err != nil {
			return
		}
		if text := s.Commands().String(); !seen[text] {
			seen[text] = true
			all = append(all, text)
		}
	}
	tilings := sp.Tilings()
	for _, t := range tilings {
		add(t.Text())
	}
	for _, t := range tilings {
		for _, r := range sp.Refinements(t) {
			add(r)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("schedule space for %s on %v is empty", stmt, grid)
	}
	maxFolds := map[string]float64{}
	for _, sched := range all {
		if maxFolds[sched], err = reductionFolds(a, ext, sched); err != nil {
			return nil, err
		}
	}
	// The formats are the canonical tiling spelled out, so every request
	// exercises the distribution-notation parser too.
	formats := map[string]string{"A": "xy->xy", "B": "xy->xy", "C": "xy->xy"}
	// The warm-up compiles a problem of another size: its plan can never
	// serve a request of the draw.
	half := map[string][]int{"A": {n / 2, n / 2}, "B": {n / 2, n / 2}, "C": {n / 2, n / 2}}
	return &coldCase{
		stmt:      stmt,
		shapes:    shapes,
		formats:   formats,
		schedules: all,
		warmup:    distal.Request{Stmt: stmt, Shapes: half, Formats: formats},
		stmtFlops: statementFlops(a, shapes),
		maxFolds:  maxFolds,
		rng:       rng,
	}, nil
}

// statementFlops is FlopsPerPoint times the statement's iteration space.
func statementFlops(a *ir.Assignment, shapes map[string][]int) float64 {
	ext, err := a.VarExtents(shapes)
	if err != nil {
		panic(fmt.Sprintf("statement %s has no extents: %v", a, err))
	}
	points := 1.0
	for _, v := range a.Vars() {
		points *= float64(ext[v.Name])
	}
	return float64(a.FlopsPerPoint()) * points
}

// reductionFolds bounds the additions that combine partial results when a
// schedule distributes a reduction variable: with the reduction split over
// R processors, every output element has at most R partial sums, so at
// most R-1 folds (fewer where a partial sum already lives in the owner's
// instance). R is the product of the processor counts of the distributed loops whose
// source is a reduction variable, read from the schedule's divide, split
// and distribute commands.
func reductionFolds(a *ir.Assignment, ext map[string]int, sched string) (float64, error) {
	cs, err := schedule.Parse(sched)
	if err != nil {
		return 0, err
	}
	type piece struct {
		src   string
		count int
	}
	outer := map[string]piece{}
	var distributed []string
	for _, c := range cs {
		switch c.Op {
		case "divide", "split":
			n, err := strconv.Atoi(c.Args[3])
			if err != nil {
				return 0, err
			}
			if c.Op == "split" {
				n = (ext[c.Args[0]] + n - 1) / n
			}
			outer[c.Args[1]] = piece{src: c.Args[0], count: n}
		case "distribute":
			distributed = append(distributed, c.Args...)
		}
	}
	reduction := map[string]bool{}
	for _, v := range a.ReductionVars() {
		reduction[v.Name] = true
	}
	r := 1
	for _, v := range distributed {
		if p, ok := outer[v]; ok && reduction[p.src] {
			r *= p.count
		}
	}
	outElems := 1.0
	for _, v := range a.LHS.Indices {
		outElems *= float64(ext[v.Name])
	}
	return float64(r-1) * outElems, nil
}

// frameSize is the encoded size of one DTWF frame of the shape: an 8-byte
// preamble (magic, version, dtype, rank), 8 bytes per dim, and 8 bytes per
// float64 element.
func frameSize(shape []int) float64 {
	elems := 1.0
	for _, d := range shape {
		elems *= float64(d)
	}
	return 8 + 8*float64(len(shape)) + 8*elems
}

func elemCount(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
