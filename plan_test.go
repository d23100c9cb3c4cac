package distal

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distal/internal/ir"
	"distal/internal/tensor"
)

// bigRequest is a request whose compile and simulate both take tens of
// milliseconds (a 32-launch SUMMA pipeline over a 32x32 launch domain), so
// a context canceled 2ms in is observed by the periodic checkpoints well
// before the work finishes — not just by the entry checks.
func bigRequest() Request {
	const n = 2048
	return Request{
		Stmt: gemmStmt,
		Shapes: map[string][]int{
			"A": {n, n}, "B": {n, n}, "C": {n, n},
		},
		Schedule: "divide(i,io,ii,32) divide(j,jo,ji,32) reorder(io,jo,ii,ji) " +
			"distribute(io,jo) split(k,ko,ki,64) reorder(io,jo,ko,ii,ji,ki) " +
			"communicate(jo,A) communicate(ko,B,C)",
	}
}

// TestPlanBindRun: the Plan lifecycle end to end — a data-free cached plan
// binds caller-owned tensors per execution and produces the reference
// result, and a second binding of different data through the same shared
// plan computes independently.
func TestPlanBindRun(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(ctx, gemmRequest(16))
	if err != nil {
		t.Fatal(err)
	}

	f := MustFormat("xy->xy")
	runOnce := func(seed int64) *tensor.Dense {
		A := NewTensor("A", f, 16, 16).Zero()
		B := NewTensor("B", f, 16, 16).FillRandom(seed)
		C := NewTensor("C", f, 16, 16).FillRandom(seed + 1)
		b := plan.Bind(A, B, C)
		res, err := b.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Time <= 0 || res.Flops <= 0 {
			t.Fatalf("implausible result: %+v", res)
		}
		stmt, err := ir.Parse(gemmStmt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ir.Evaluate(stmt, map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
		if err != nil {
			t.Fatal(err)
		}
		out := b.Output(0)
		if out == nil || out.Data == nil {
			t.Fatal("binding lost its output tensor")
		}
		if !out.Data.EqualWithin(want, 1e-9) {
			t.Fatalf("seed %d: plan-bound run produced a wrong product", seed)
		}
		return out.Data
	}
	r1 := runOnce(1)
	r2 := runOnce(42)
	if r1.EqualWithin(r2, 1e-9) {
		t.Fatal("different bound data produced identical results: bindings are not per-execution")
	}
	// The real-mode runs rode on the single cached plan.
	if st := sess.CacheStats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want one compile for the shared plan", st)
	}
}

// TestPlanBindRunConcurrent: many goroutines run real-mode executions of
// one shared cached plan on private data (run under -race).
func TestPlanBindRunConcurrent(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(ctx, gemmRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	f := MustFormat("xy->xy")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			A := NewTensor("A", f, 16, 16).Zero()
			B := NewTensor("B", f, 16, 16).FillRandom(seed)
			C := NewTensor("C", f, 16, 16).FillRandom(seed + 1)
			if _, err := plan.Bind(A, B, C).Run(ctx); err != nil {
				errs <- err
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPlanBindErrors(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(ctx, gemmRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	f := MustFormat("xy->xy")
	A := NewTensor("A", f, 16, 16).Zero()
	B := NewTensor("B", f, 16, 16).FillRandom(1)
	C := NewTensor("C", f, 16, 16).FillRandom(2)
	cases := map[string]*Binding{
		"missing tensor": plan.Bind(A, B),
		"unknown tensor": plan.Bind(A, B, C, NewTensor("D", f, 16, 16).Zero()),
		"no data":        plan.Bind(A, B, NewTensor("C", f, 16, 16)),
		"wrong shape":    plan.Bind(A, B, NewTensor("C", f, 8, 8).Zero()),
	}
	for name, b := range cases {
		_, err := b.Run(ctx)
		if err == nil {
			t.Errorf("%s: Run succeeded, want error", name)
			continue
		}
		if KindOf(err) != KindExec {
			t.Errorf("%s: kind = %v, want KindExec (err: %v)", name, KindOf(err), err)
		}
	}
}

// TestBindRejectsAliasedOutput: a bound output whose data is also bound as
// another tensor — an input of its own instance or any tensor of another —
// is a KindExec bind error, and no kernel runs: executing would read a
// tensor while overwriting it and silently return a wrong answer.
func TestBindRejectsAliasedOutput(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(ctx, gemmRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	f := MustFormat("xy->xy")
	B := NewTensor("B", f, 16, 16).FillRandom(1)
	C := NewTensor("C", f, 16, 16).FillRandom(2)
	before := B.Data.Clone("B")
	aliasB := NewTensor("A", f, 16, 16).Bind(B.Data)
	cases := map[string]*Binding{
		"bind":        plan.Bind(aliasB, B, C),
		"batch-same":  plan.BindBatch([]*Tensor{NewTensor("A", f, 16, 16).Zero(), NewTensor("B", f, 16, 16).Zero(), C}, []*Tensor{aliasB, B, C}),
		"batch-other": plan.BindBatch([]*Tensor{NewTensor("A", f, 16, 16).Bind(C.Data), B, C}, []*Tensor{aliasB, NewTensor("B", f, 16, 16).Zero(), C}),
	}
	for name, b := range cases {
		_, err := b.Run(ctx)
		if err == nil {
			t.Errorf("%s: Run succeeded on an output aliasing an input, want a bind error", name)
			continue
		}
		if KindOf(err) != KindExec || !strings.Contains(err.Error(), "outputs must be private") {
			t.Errorf("%s: err = %v (kind %v), want a KindExec aliasing error", name, err, KindOf(err))
		}
		if b.Len() != 0 || b.Output(0) != nil {
			t.Errorf("%s: failed binding reports %d instances", name, b.Len())
		}
	}
	if !B.Data.EqualWithin(before, 0) {
		t.Fatal("a rejected binding ran kernels over the aliased input")
	}
}

func TestErrorKinds(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	shapes := map[string][]int{"A": {8, 8}, "B": {8, 8}, "C": {8, 8}}
	compile := func(req Request) error {
		_, err := sess.Compile(ctx, req)
		return err
	}
	// The fluent layer classifies the same failures as the Request path.
	f := Tiled(2)
	gemmTensors := func() []*Tensor {
		return []*Tensor{NewTensor("A", f, 8, 8), NewTensor("B", f, 8, 8), NewTensor("C", f, 8, 8)}
	}
	define := func(expr string, tensors ...*Tensor) error {
		_, err := sess.Define(expr, tensors...)
		return err
	}
	gemm := sess.MustDefine(gemmStmt, gemmTensors()...)
	wide := NewSession(NewMachine(CPU, 2, 2, 2)).MustDefine(gemmStmt, gemmTensors()...)
	cases := []struct {
		name string
		err  error
		kind ErrKind
	}{
		{"parse", compile(Request{Stmt: "A(i,j) ="}), KindParse},
		{"missing shape", compile(Request{Stmt: gemmStmt, Shapes: map[string][]int{"A": {8, 8}}}), KindParse},
		{"bad format", compile(Request{Stmt: gemmStmt, Shapes: shapes, Formats: map[string]string{"A": "xy->>xy"}}), KindParse},
		{"bad schedule", compile(Request{Stmt: gemmStmt, Shapes: shapes, Schedule: "divide(i,io,ii)"}), KindSchedule},
		{"unknown variable", compile(Request{Stmt: gemmStmt, Shapes: shapes, Schedule: "divide(zz,io,ii,2)"}), KindSchedule},
		{"fluent parse", define("A(i,j) ="), KindParse},
		{"fluent missing tensor", define(gemmStmt, gemmTensors()[:2]...), KindParse},
		{"fluent bad schedule", gemm.ApplySchedule("divide(i,io,ii)"), KindSchedule},
		{"fluent unknown variable", gemm.ApplySchedule("divide(zz,io,ii,2)"), KindSchedule},
		{"fluent auto-schedule", wide.AutoSchedule(), KindSchedule},
	}
	for _, c := range cases {
		err := c.err
		if err == nil {
			t.Errorf("%s: succeeded, want error", c.name)
			continue
		}
		if got := KindOf(err); got != c.kind {
			t.Errorf("%s: kind = %v, want %v (err: %v)", c.name, got, c.kind, err)
		}
		var de *Error
		if !errors.As(err, &de) {
			t.Errorf("%s: error %v is not a *distal.Error", c.name, err)
		}
		if !errors.Is(err, &Error{Kind: c.kind}) {
			t.Errorf("%s: errors.Is against kind sentinel failed", c.name)
		}
	}
}

// pollCanceledCtx is a context that reports cancellation starting at its
// n-th Err() poll: a deterministic way to land a cancellation between the
// entry check and completion, exercising the periodic checkpoints without
// racing a timer against the work.
type pollCanceledCtx struct {
	context.Context
	polls     atomic.Int64
	threshold int64
	once      sync.Once
	done      chan struct{}
}

func cancelAfterPolls(n int64) *pollCanceledCtx {
	return &pollCanceledCtx{Context: context.Background(), threshold: n, done: make(chan struct{})}
}

func (c *pollCanceledCtx) Err() error {
	if c.polls.Add(1) > c.threshold {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *pollCanceledCtx) Done() <-chan struct{} { return c.done }

// waitGoroutines polls until the goroutine count drops back to within a
// small slack of the baseline (the runtime needs a moment to retire
// finished goroutines) and fails the test if it never does.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCompileCancellation(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 4, 4))
	// Already-canceled context: rejected at the door.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Compile(ctx, gemmRequest(64)); KindOf(err) != KindCanceled {
		t.Fatalf("pre-canceled compile: kind = %v, want KindCanceled", KindOf(err))
	}
	if _, err := sess.Compile(ctx, gemmRequest(64)); !errors.Is(err, context.Canceled) {
		t.Fatal("canceled compile must match errors.Is(err, context.Canceled)")
	}

	// Mid-compile: the context starts reporting cancellation a few Err()
	// polls in — past the entry checks, observed by the materialization
	// workers' periodic checkpoints — and the abort must be classified and
	// prompt.
	baseline := runtime.NumGoroutine()
	ctx2 := cancelAfterPolls(3)
	start := time.Now()
	_, err := sess.Compile(ctx2, bigRequest())
	elapsed := time.Since(start)
	if KindOf(err) != KindCanceled {
		t.Fatalf("mid-compile cancel: kind = %v (err %v), want KindCanceled", KindOf(err), err)
	}
	if ctx2.polls.Load() <= 3 {
		t.Fatal("compile never reached a cancellation checkpoint past the entry check")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; checkpoints are not prompt", elapsed)
	}
	waitGoroutines(t, baseline)

	// The canceled compile must not have poisoned the cache: a live context
	// compiles the same request successfully afterwards.
	if _, err := sess.Compile(context.Background(), bigRequest()); err != nil {
		t.Fatalf("compile after canceled attempt failed: %v", err)
	}
}

func TestSimulateCancellation(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 4, 4))
	plan, err := sess.Compile(context.Background(), bigRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Simulate(ctx); KindOf(err) != KindCanceled {
		t.Fatalf("pre-canceled simulate: kind = %v, want KindCanceled", KindOf(err))
	}

	baseline := runtime.NumGoroutine()
	ctx2 := cancelAfterPolls(3)
	start := time.Now()
	_, err = plan.Simulate(ctx2)
	elapsed := time.Since(start)
	if KindOf(err) != KindCanceled {
		t.Fatalf("mid-simulate cancel: kind = %v (err %v), want KindCanceled", KindOf(err), err)
	}
	if ctx2.polls.Load() <= 3 {
		t.Fatal("simulate never reached a cancellation checkpoint past the entry check")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; event-loop checkpoints are not prompt", elapsed)
	}
	waitGoroutines(t, baseline)

	// The plan is unharmed: a live context still simulates.
	if _, err := plan.Simulate(context.Background()); err != nil {
		t.Fatalf("simulate after canceled attempt failed: %v", err)
	}
}

// TestCompileSingleflight: M concurrent identical Compile calls yield
// exactly one cache miss; everyone gets the same plan.
func TestCompileSingleflight(t *testing.T) {
	const m = 16
	sess := NewSession(NewMachine(CPU, 4, 4))
	var (
		gate  = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		keys  = map[string]bool{}
		nErrs int
	)
	for g := 0; g < m; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			plan, err := sess.Compile(context.Background(), bigRequest())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				nErrs++
				return
			}
			keys[plan.Key()] = true
		}()
	}
	close(gate)
	wg.Wait()
	if nErrs > 0 {
		t.Fatalf("%d concurrent compiles failed", nErrs)
	}
	if len(keys) != 1 {
		t.Fatalf("concurrent compiles produced %d distinct plan keys", len(keys))
	}
	st := sess.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one cache miss across %d concurrent compiles", st, m)
	}
	if st.Hits != m-1 {
		t.Fatalf("stats = %+v, want %d shared/cached hits", st, m-1)
	}
}

// TestSingleflightCanceledLeader: waiters whose context is alive must not
// inherit the leader's cancellation — they retry and compile successfully.
func TestSingleflightCanceledLeader(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 4, 4))
	leaderCtx, cancelLeader := context.WithCancel(context.Background())

	leaderIn := make(chan struct{})
	leaderOut := make(chan error, 1)
	go func() {
		close(leaderIn)
		_, err := sess.Compile(leaderCtx, bigRequest())
		leaderOut <- err
	}()
	<-leaderIn
	time.Sleep(time.Millisecond) // let the leader enter the flight
	cancelLeader()

	// A follower with a live context must end up with a valid plan even if
	// it briefly joined the canceled leader's flight.
	plan, err := sess.Compile(context.Background(), bigRequest())
	if err != nil {
		t.Fatalf("follower inherited the leader's fate: %v", err)
	}
	if plan.Key() == "" {
		t.Fatal("follower got an empty plan")
	}
	if err := <-leaderOut; err != nil && KindOf(err) != KindCanceled {
		t.Fatalf("leader failed with kind %v, want KindCanceled or success", KindOf(err))
	}
}
