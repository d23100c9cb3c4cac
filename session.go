package distal

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"distal/internal/cin"
	"distal/internal/core"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/obs"
	"distal/internal/schedule"
)

// Session is the long-lived entry point of the compile/execute API: it owns
// a target machine, default simulation parameters, and an LRU cache of
// compiled plans. A service compiles a workload once and executes it many
// times; repeated Compile of the same (statement, shapes, formats,
// schedule) returns the cached plan, concurrent identical Compile calls
// share one compilation (singleflight), and a cached Plan is safe for
// concurrent Simulate and Bind.Run calls.
//
// Plans never hold data: a plan describes a task graph, not the values
// flowing through it. Real-mode execution binds data per call through
// Plan.Bind, so cached plans serve simulation and real execution alike.
type Session struct {
	machine *Machine
	params  Params

	mu       sync.Mutex
	capacity int
	lru      *list.List // of *planEntry, front = most recent
	plans    map[string]*list.Element
	hits     int64
	misses   int64

	// flights collapses concurrent compiles of one plan key: the first
	// caller compiles, later callers arriving before it finishes wait and
	// share the result (exactly one cache miss).
	flights map[string]*flight
}

type planEntry struct {
	key  string
	data *planData
}

type flight struct {
	done chan struct{}
	data *planData
	err  error
}

// DefaultPlanCacheSize is the plan-cache capacity of new sessions.
const DefaultPlanCacheSize = 128

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithParams sets the session's default cost model (used by Execute and as
// the default for Plan.Simulate through this session). The zero default is
// LassenCPU.
func WithParams(p Params) SessionOption {
	return func(s *Session) { s.params = p }
}

// WithPlanCacheSize sets the plan cache capacity; 0 disables caching.
func WithPlanCacheSize(n int) SessionOption {
	return func(s *Session) { s.capacity = n }
}

// NewSession creates a session over the machine.
func NewSession(m *Machine, opts ...SessionOption) *Session {
	s := &Session{
		machine:  m,
		params:   LassenCPU(),
		capacity: DefaultPlanCacheSize,
		lru:      list.New(),
		plans:    map[string]*list.Element{},
		flights:  map[string]*flight{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Machine returns the session's target machine.
func (s *Session) Machine() *Machine { return s.machine }

// Params returns the session's default cost model.
func (s *Session) Params() Params { return s.params }

// CacheStats summarizes plan-cache effectiveness.
type CacheStats struct {
	// Hits counts statement compiles served without running the compiler
	// (plan cache or a shared in-flight compile).
	Hits int64
	// Misses counts statement compiles that ran the compiler.
	Misses int64
	// Entries is the number of cached plans.
	Entries int
}

// CacheStats returns a snapshot of the plan cache counters.
func (s *Session) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{Hits: s.hits, Misses: s.misses, Entries: s.lru.Len()}
}

// store inserts a plan, evicting the least recently used beyond capacity.
func (s *Session) store(key string, data *planData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		return
	}
	if el, ok := s.plans[key]; ok {
		s.lru.MoveToFront(el)
		el.Value.(*planEntry).data = data
		return
	}
	s.plans[key] = s.lru.PushFront(&planEntry{key: key, data: data})
	for s.lru.Len() > s.capacity {
		last := s.lru.Back()
		s.lru.Remove(last)
		delete(s.plans, last.Value.(*planEntry).key)
	}
}

// Define parses the statement and declares the named tensors against the
// session's machine; the resulting computation compiles through the
// session's plan cache. Only the tensors' names, shapes, and formats are
// read: data binds per execution through Plan.Bind.
// Every tensor named in the expression must be provided, with shapes the
// statement accepts; failures are KindParse.
func (s *Session) Define(expr string, tensors ...*Tensor) (_ *Computation, err error) {
	defer func() { err = wrapErr(KindParse, "compile", err) }()
	stmt, err := ir.Parse(expr)
	if err != nil {
		return nil, err
	}
	byName := map[string]*Tensor{}
	for _, t := range tensors {
		byName[t.Name] = t
	}
	shapes := map[string][]int{}
	for _, name := range stmt.TensorNames() {
		t, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("distal: expression references tensor %s, which was not provided", name)
		}
		shapes[name] = t.Shape
	}
	if err := stmt.Validate(shapes); err != nil {
		return nil, err
	}
	return &Computation{
		Stmt:    stmt,
		Machine: s.machine,
		tensors: byName,
		sched:   schedule.New(stmt),
		sess:    s,
	}, nil
}

// MustDefine is Define but panics on error.
func (s *Session) MustDefine(expr string, tensors ...*Tensor) *Computation {
	c, err := s.Define(expr, tensors...)
	if err != nil {
		panic(err)
	}
	return c
}

// Request is one compile job in pure data form — everything a server, CLI,
// or stored workload needs to name a computation: the statement, tensor
// shapes, tensor formats as distribution notation text, and the schedule as
// scheduling-command text. Requests are data-free; bind real data to the
// compiled plan through Plan.Bind.
type Request struct {
	// Stmt is the tensor index notation statement,
	// e.g. "A(i,j) = B(i,k) * C(k,j)".
	Stmt string
	// Shapes gives every tensor's dimensions by name.
	Shapes map[string][]int
	// Formats gives tensor distribution notation per tensor,
	// e.g. "xy->xy"; tensors without an entry default to the canonical
	// tiling of their rank.
	Formats map[string]string
	// Schedule is scheduling-command text,
	// e.g. "divide(i,io,ii,4) reorder(io,ii,j,k) distribute(io) communicate(io,A,B)".
	// Empty means AutoSchedule.
	Schedule string
	// Stmts is the multi-statement form of a request: a list of statements
	// whose left-hand sides name intermediates later statements consume,
	// each with its own format annotations and schedule. Shapes then
	// declares the leaf inputs only (intermediate shapes are inferred from
	// their producers), and Stmt/Formats/Schedule must be empty. Compile
	// turns a request with Stmts into a multi-stage Plan.
	Stmts []Statement
}

// Statement is one statement of a multi-statement Request. Formats may only
// name tensors of this statement; tensors without an entry default to the
// canonical tiling of their rank. An empty Schedule auto-schedules the
// stage.
type Statement struct {
	// Stmt is the tensor index notation statement,
	// e.g. "D(i,j) = A(i,k) * B(k,j)".
	Stmt string
	// Formats gives tensor distribution notation per tensor of this
	// statement, e.g. "xy->xy".
	Formats map[string]string
	// Schedule is scheduling-command text for this statement.
	Schedule string
}

// buildComputation turns a request into a schedulable computation,
// classifying failures: request validation and statement/format parsing are
// KindParse, schedule parsing/application is KindSchedule.
func (s *Session) buildComputation(req Request) (*Computation, error) {
	c, err := s.buildUnscheduled(req)
	if err != nil {
		return nil, err
	}
	if req.Schedule == "" {
		err = c.AutoSchedule()
	} else {
		err = c.ApplySchedule(req.Schedule)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// buildUnscheduled is buildComputation without the schedule: it validates
// the request and binds tensors, leaving the computation unscheduled (the
// tuner derives candidate schedules itself).
func (s *Session) buildUnscheduled(req Request) (*Computation, error) {
	stmt, err := ir.Parse(req.Stmt)
	if err != nil {
		return nil, wrapErr(KindParse, "compile", err)
	}
	// Reject keys that name no tensor of the statement: in a pure-data wire
	// format a typo'd name would otherwise silently fall back to defaults.
	named := map[string]bool{}
	for _, name := range stmt.TensorNames() {
		named[name] = true
	}
	for key := range req.Shapes {
		if !named[key] {
			return nil, wrapErr(KindParse, "compile", fmt.Errorf("request Shapes names %s, which is not a tensor of %q", key, req.Stmt))
		}
	}
	for key := range req.Formats {
		if !named[key] {
			return nil, wrapErr(KindParse, "compile", fmt.Errorf("request Formats names %s, which is not a tensor of %q", key, req.Stmt))
		}
	}
	var tensors []*Tensor
	for _, name := range stmt.TensorNames() {
		shape, ok := req.Shapes[name]
		if !ok {
			return nil, wrapErr(KindParse, "compile", fmt.Errorf("request has no shape for tensor %s", name))
		}
		var f Format
		if src, ok := req.Formats[name]; ok {
			f, err = ParseFormat(src)
			if err != nil {
				return nil, wrapErr(KindParse, "compile", fmt.Errorf("tensor %s: %w", name, err))
			}
		} else {
			if len(shape) > 6 {
				return nil, wrapErr(KindParse, "compile", fmt.Errorf("tensor %s has rank %d; the default tiling supports ranks up to 6 (give a Formats entry)", name, len(shape)))
			}
			f = Tiled(len(shape))
		}
		tensors = append(tensors, NewTensor(name, f, shape...))
	}
	return s.Define(req.Stmt, tensors...)
}

// Compile compiles a request into an immutable Plan through the plan cache.
// A single-statement request compiles to a one-stage plan; a request with
// Stmts compiles to a plan DAG, each stage exactly as a single-statement
// request would.
//
// Every statement resolves the same way: build the computation, hash it
// into its plan key (core.PlanKey), and look the key up in the plan cache.
// On a miss, concurrent compiles of the same key run the compiler once and
// share the result (singleflight). Cancellation of ctx aborts the compile
// at the materializer's next checkpoint and returns an error of
// KindCanceled; waiters whose own context is alive when the compiling
// leader is canceled retry instead of inheriting the leader's cancellation.
func (s *Session) Compile(ctx context.Context, req Request) (*Plan, error) {
	if len(req.Stmts) > 0 {
		return s.compileProgram(ctx, req)
	}
	if req.Stmt == "" {
		return nil, wrapErr(KindParse, "compile", errors.New("request has no statements (set Stmt, or Stmts for a multi-statement program)"))
	}
	st, err := s.compileStage(ctx, req)
	if err != nil {
		return nil, err
	}
	return s.stagePlan(st), nil
}

// compileStage resolves one statement's program under a "compile" span.
func (s *Session) compileStage(ctx context.Context, req Request) (stage, error) {
	ctx, sp := obs.Start(ctx, "compile")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return stage{}, wrapErr(KindCanceled, "compile", err)
	}
	c, err := s.buildComputation(req)
	if err != nil {
		return stage{}, err
	}
	key, pd, stats, err := s.resolve(ctx, c)
	if err != nil {
		return stage{}, err
	}
	sp.SetAttr("plan_key", key)
	if stats.Cached {
		sp.SetAttr("cache", "hit")
	} else {
		sp.SetAttr("cache", "miss")
	}
	return stage{key: key, data: pd, stats: stats}, nil
}

// resolve returns the compiled program of c and its plan key: from the plan
// cache, from a concurrent compile of the same key (waiting for it), or by
// running the compiler as that key's flight leader. Every call counts
// exactly one hit or miss.
func (s *Session) resolve(ctx context.Context, c *Computation) (string, *planData, CompileStats, error) {
	in := c.compileInput()
	key := core.PlanKey(in)
	sp := obs.FromContext(ctx)
	for {
		s.mu.Lock()
		if el, ok := s.plans[key]; ok {
			s.hits++
			s.lru.MoveToFront(el)
			pd := el.Value.(*planEntry).data
			s.mu.Unlock()
			sp.SetAttr("source", "cache")
			return key, pd, cachedStats(pd, false), nil
		}
		if fl, ok := s.flights[key]; ok {
			s.mu.Unlock()
			wait := sp.StartChild("singleflight-wait")
			select {
			case <-ctx.Done():
				wait.End()
				return "", nil, CompileStats{}, wrapErr(KindCanceled, "compile", ctx.Err())
			case <-fl.done:
			}
			wait.End()
			if fl.err != nil {
				if KindOf(fl.err) == KindCanceled && ctx.Err() == nil {
					continue // the leader was canceled, not us: retry
				}
				return "", nil, CompileStats{}, fl.err
			}
			s.mu.Lock()
			s.hits++ // served by the shared flight: no compile ran for us
			s.mu.Unlock()
			sp.SetAttr("source", "flight")
			return key, fl.data, cachedStats(fl.data, true), nil
		}
		if s.capacity > 0 {
			s.misses++
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[key] = fl
		s.mu.Unlock()

		sp.SetAttr("flight", "lead")
		pd, stats, err := s.lead(ctx, key, c, in, fl)
		return key, pd, stats, err
	}
}

// lead runs the compiler as a flight's leader, guaranteeing — even on a
// compiler panic — that the flight is removed and its done channel closed,
// so waiters can never block on a dead flight.
func (s *Session) lead(ctx context.Context, key string, c *Computation, in core.Input, fl *flight) (pd *planData, stats CompileStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			pd, err = nil, fmt.Errorf("distal: compile panicked: %v", r)
		}
		fl.data, fl.err = pd, err
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(fl.done)
	}()
	start := time.Now()
	_, run := obs.Start(ctx, "compiler-run")
	prog, err := core.CompileContext(ctx, in)
	run.End()
	if err != nil {
		return nil, CompileStats{}, wrapErr(KindCompile, "compile", err)
	}
	pd = c.newPlanData(prog)
	s.store(key, pd)
	return pd, CompileStats{CompileTime: time.Since(start), Launches: pd.launches, Points: pd.points}, nil
}

func cachedStats(pd *planData, shared bool) CompileStats {
	return CompileStats{Cached: true, Shared: shared, Launches: pd.launches, Points: pd.points}
}

// Execute is the one-call convenience a CLI needs: Compile followed by
// Simulate under a background context. Services should prefer Compile and
// Plan.Simulate with a real context.
func (s *Session) Execute(req Request, opts ...ExecOption) (*Result, error) {
	ctx := context.Background()
	plan, err := s.Compile(ctx, req)
	if err != nil {
		return nil, err
	}
	return plan.Simulate(ctx, opts...)
}

// compileInput assembles the compiler input for this computation.
func (c *Computation) compileInput() core.Input {
	decls := map[string]*core.TensorDecl{}
	for _, name := range c.Stmt.TensorNames() {
		t := c.tensors[name]
		decls[name] = &core.TensorDecl{
			Name:      name,
			Shape:     t.Shape,
			Placement: t.Format.Placement,
		}
	}
	return core.Input{
		Stmt:     c.Stmt,
		Machine:  c.Machine.M,
		Tensors:  decls,
		Schedule: c.sched,
	}
}

// newPlanData wraps a freshly compiled program with this computation's
// descriptive metadata for caching.
func (c *Computation) newPlanData(prog *legion.Program) *planData {
	pd := &planData{
		prog:         prog,
		scheduleText: c.sched.String(),
		notation:     c.Notation(),
		output:       c.Stmt.LHS.Tensor,
		tensorNames:  c.Stmt.TensorNames(),
		launches:     len(prog.Launches),
	}
	for _, l := range prog.Launches {
		pd.points += l.Domain.Size()
	}
	return pd
}

// Notation returns the concrete index notation of the scheduled statement
// (the loop structure the compiler lowers, §5.1).
func (c *Computation) Notation() string { return cin.Build(c.sched).String() }

// ScheduleText returns the schedule in its serializable command form, e.g.
// "divide(i,io,ii,4) reorder(io,jo,ii,ji) distribute(io,jo)".
func (c *Computation) ScheduleText() string { return c.sched.String() }

// ApplySchedule parses scheduling-command text and applies it to the
// computation's schedule, after any commands already applied. Failures are
// KindSchedule.
func (c *Computation) ApplySchedule(src string) error {
	cs, err := schedule.Parse(src)
	if err != nil {
		return wrapErr(KindSchedule, "compile", err)
	}
	return wrapErr(KindSchedule, "compile", c.sched.Apply(cs).Err())
}
