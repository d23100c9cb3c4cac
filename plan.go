package distal

import (
	"context"
	"strings"
	"time"

	"distal/internal/codegen"
	"distal/internal/legion"
)

// planData is the immutable payload the plan cache stores for one compiled
// statement: the runtime program plus the descriptive metadata a service
// wants to report (schedule text, concrete index notation, program size).
// One planData is shared by every Plan stage resolved from the cache;
// nothing in it is mutated after compilation.
type planData struct {
	prog         *legion.Program
	scheduleText string
	notation     string
	output       string   // LHS tensor/region name
	tensorNames  []string // statement order: LHS first, then RHS left to right
	launches     int
	points       int // total index-launch domain points
}

// CompileStats describes how one Compile call was satisfied. For a
// multi-stage plan it aggregates the stages: Cached only when every stage
// was served without a compiler run, CompileTime/Launches/Points summed.
type CompileStats struct {
	// Cached reports the plan was served without running the compiler:
	// from the plan cache or a shared in-flight compile.
	Cached bool
	// Shared reports the plan came from a concurrent identical Compile call
	// (singleflight): this caller waited for the leader instead of
	// compiling. Shared implies Cached.
	Shared bool
	// CompileTime is the wall time the compiler ran for this call; zero
	// when Cached.
	CompileTime time.Duration
	// Launches and Points are the program's size: index launches and total
	// launch-domain points.
	Launches int
	Points   int
}

// Plan is an immutable compiled workload: the unit a service compiles once,
// caches, and executes many times. A plan is an ordered list of stages, each
// one statement's cached program. A single-statement request compiles to a
// one-stage plan; a multi-statement request (Request.Stmts) to a plan DAG
// whose stages hand their distributed outputs to later stages in place,
// with an explicit repartition stage wherever a producer and a consumer
// disagree on an intermediate's layout — an intermediate never gathers to a
// single leaf between stages.
//
// A Plan never holds data — Simulate walks the task graph under the cost
// model, and Bind attaches caller-owned tensors per execution — so one Plan
// is safe for concurrent use from any number of goroutines.
//
// The lifecycle is Compile → (Simulate | Bind.Run)*:
//
//	plan, err := sess.Compile(ctx, req)
//	res, err := plan.Simulate(ctx)                  // analysis, no data
//	res, err := plan.Bind(a, b, c).Run(ctx)        // real execution
type Plan struct {
	sess   *Session
	key    string
	stages []stage
	ls     []legion.Stage
	binds  []string // the tensors a caller binds, in wire frame order
	output string
	stats  CompileStats
}

// stage is one execution stage of a Plan: a statement's cached program or
// an inserted repartition, with the handoffs wiring it to earlier stages.
type stage struct {
	key     string
	data    *planData
	stats   CompileStats
	inherit []legion.Handoff
	repart  bool
}

func (s *Session) newPlan(key string, stages []stage, binds []string, output string) *Plan {
	p := &Plan{sess: s, key: key, stages: stages, binds: binds, output: output, stats: CompileStats{Cached: true}}
	for _, st := range stages {
		p.ls = append(p.ls, legion.Stage{Prog: st.data.prog, Inherit: st.inherit, Label: st.data.output, Repart: st.repart})
		p.stats.Cached = p.stats.Cached && st.stats.Cached
		p.stats.Shared = p.stats.Shared || st.stats.Shared
		p.stats.CompileTime += st.stats.CompileTime
		p.stats.Launches += st.stats.Launches
		p.stats.Points += st.stats.Points
	}
	return p
}

// stagePlan returns st as a standalone one-stage plan binding every tensor
// of its statement.
func (s *Session) stagePlan(st stage) *Plan {
	return s.newPlan(st.key, []stage{st}, st.data.tensorNames, st.data.output)
}

// Key returns the plan's cache key. A one-statement plan's key is the
// content hash over statement, shapes, formats, schedule text, and machine
// (see core.PlanKey); a multi-statement plan's key hashes its stage keys in
// execution order. Two plans with equal keys execute identical programs.
func (p *Plan) Key() string { return p.key }

// ScheduleText returns the plan's schedule in serializable command form,
// one line per stage.
func (p *Plan) ScheduleText() string {
	return p.joinStages(func(pd *planData) string { return pd.scheduleText })
}

// Notation returns the concrete index notation of the scheduled statements
// (the loop structure the compiler lowered, §5.1), one line per stage.
func (p *Plan) Notation() string {
	return p.joinStages(func(pd *planData) string { return pd.notation })
}

func (p *Plan) joinStages(field func(*planData) string) string {
	lines := make([]string, len(p.stages))
	for i, st := range p.stages {
		lines[i] = field(st.data)
	}
	return strings.Join(lines, "\n")
}

// Listing renders the generated Legion program of every stage, in
// execution order, listing at most maxPoints task points per launch (0 lists
// all).
func (p *Plan) Listing(maxPoints int) string {
	return p.joinStages(func(pd *planData) string { return codegen.Program(pd.prog, maxPoints) })
}

// Stats reports how this Compile call was satisfied and the program's size.
func (p *Plan) Stats() CompileStats { return p.stats }

// Tensors returns the names of the tensors an execution binds, in the
// canonical order wire protocols move tensor data in (the frame order of
// POST /v1/run): for a single-statement plan every tensor of the statement
// (LHS first, then RHS tensors left to right, duplicates dropped), for a
// multi-statement plan the leaf inputs in first-use order. The caller must
// not mutate the returned slice.
func (p *Plan) Tensors() []string { return p.binds }

// Inputs is Tensors.
//
// Deprecated: use Tensors.
func (p *Plan) Inputs() []string { return p.binds }

// Output returns the name of the tensor a run answers with: the statement's
// LHS, or the last statement's LHS of a multi-statement plan.
func (p *Plan) Output() string { return p.output }

// Shape returns the compiled shape of the named tensor (bound or computed
// by a stage), or nil when the plan has no tensor of that name.
func (p *Plan) Shape(name string) []int {
	for _, st := range p.stages {
		for _, r := range st.data.prog.Regions {
			if r.Name == name {
				return r.Shape
			}
		}
	}
	return nil
}

// Stages returns the number of execution stages, inserted repartitions
// included.
func (p *Plan) Stages() int { return len(p.stages) }

// Repartitions returns how many explicit layout-change stages the plan
// carries (zero when every producer/consumer pair agreed on formats).
func (p *Plan) Repartitions() int {
	n := 0
	for _, st := range p.stages {
		if st.repart {
			n++
		}
	}
	return n
}

// StageMeta describes one execution stage for reporting surfaces (the serve
// layer's Distal-Stages header, CLI -v rows): static facts only — per-stage
// wall time lives in the request trace.
type StageMeta struct {
	Output   string
	PlanKey  string
	Cached   bool
	Repart   bool
	Launches int
	Points   int
}

// StageMetas returns one StageMeta per execution stage, repartitions
// included, in execution order.
func (p *Plan) StageMetas() []StageMeta {
	out := make([]StageMeta, len(p.stages))
	for i, st := range p.stages {
		out[i] = StageMeta{
			Output:   st.data.output,
			PlanKey:  st.key,
			Cached:   st.stats.Cached,
			Repart:   st.repart,
			Launches: st.stats.Launches,
			Points:   st.stats.Points,
		}
	}
	return out
}

// StagePlans returns each execution stage as a standalone one-stage plan,
// in execution order (repartition stages included). A stage plan binds
// every tensor of its statement, like a single-statement Compile.
func (p *Plan) StagePlans() []*Plan {
	plans := make([]*Plan, len(p.stages))
	for i, st := range p.stages {
		plans[i] = p.sess.stagePlan(stage{key: st.key, data: st.data, stats: st.stats})
	}
	return plans
}

// Simulate executes the plan's task graph without data under the session's
// cost model (override with WithCostModel): stages run in order on one
// simulated clock, intermediates hand off in place, and the metrics
// (makespan, communication, peak memory) cover the whole plan. It aborts
// with KindCanceled at the runtime's next cancellation checkpoint once ctx
// is done.
func (p *Plan) Simulate(ctx context.Context, opts ...ExecOption) (*Result, error) {
	return p.exec(ctx, "simulate", opts)
}

// exec runs the plan's stages under the session's cost model.
func (p *Plan) exec(ctx context.Context, op string, opts []ExecOption) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, op, err)
	}
	res, err := legion.RunStages(ctx, p.ls, legion.NewOptions(p.sess.params, opts...))
	if err != nil {
		return nil, wrapErr(KindExec, op, err)
	}
	return res, nil
}

// WithCostModel overrides the cost model of one execution (the session's
// default otherwise).
func WithCostModel(p Params) ExecOption { return legion.WithParams(p) }
