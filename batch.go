package distal

import (
	"context"
	"fmt"
	"slices"

	"distal/internal/legion"
	"distal/internal/tensor"
)

// Binding is a Plan with real data attached for N independent problem
// instances (N = 1 for Bind): the executable form of a Real-mode workload.
// The caller binds the plan's Tensors per instance; every other stage
// output (a multi-statement plan's intermediates and output) is allocated
// privately per instance by the binding, so concurrent executions never
// share state. One Run walks each stage's launch structure once —
// amortizing requirement lookup, accounting, and dispatch across the batch —
// while leaf kernels run per instance over the worker pool, and every
// instance's output is bit-identical to a single-instance run on the same
// data.
//
// The shared plan is not touched by binding, and binding errors surface at
// Run. A Binding is cheap; make one per data set.
type Binding struct {
	plan  *Plan
	insts []map[string]*tensor.Dense
	outs  []*Tensor
	err   error
}

// Bind attaches real data for one execution. Exactly the plan's Tensors
// must be bound with data (allocate with Zero, FillRandom, or Bind), with
// shapes matching the compiled plan, and the output's data must not be any
// input's.
func (p *Plan) Bind(tensors ...*Tensor) *Binding {
	return p.bind("bind", [][]*Tensor{tensors})
}

// bind validates every instance against the plan, allocates its unbound
// stage outputs, and checks that each bound output is private to its
// instance.
func (p *Plan) bind(op string, instances [][]*Tensor) *Binding {
	fail := func(err error) *Binding { return &Binding{plan: p, err: wrapErr(KindExec, op, err)} }
	b := &Binding{plan: p}
	for i, ts := range instances {
		inst, out, err := p.bindInstance(ts)
		if err != nil {
			if op == "bind-batch" {
				err = fmt.Errorf("instance %d: %w", i, err)
			}
			return fail(err)
		}
		b.insts, b.outs = append(b.insts, inst), append(b.outs, out)
	}
	if err := privateOutputs(b.insts, p.output); err != nil {
		return fail(err)
	}
	return b
}

// privateOutputs reports a bound output whose data is also bound as any
// other tensor of any instance: kernels would read a tensor while writing
// it (a wrong answer), or instances running concurrently would race on it.
func privateOutputs(insts []map[string]*tensor.Dense, out string) error {
	for i, inst := range insts {
		for j, other := range insts {
			for name, d := range other {
				if d == inst[out] && (i != j || name != out) {
					return fmt.Errorf("instance %d output %s shares data with instance %d tensor %s: outputs must be private to their instance", i, out, j, name)
				}
			}
		}
	}
	return nil
}

// bindInstance validates one instance's tensors against the plan and
// allocates its unbound stage outputs.
func (p *Plan) bindInstance(tensors []*Tensor) (map[string]*tensor.Dense, *Tensor, error) {
	data := map[string]*tensor.Dense{}
	var out *Tensor
	for _, t := range tensors {
		want := p.Shape(t.Name)
		switch {
		case !slices.Contains(p.binds, t.Name) && want != nil:
			return nil, nil, fmt.Errorf("tensor %s is computed by the program; bind leaf inputs only", t.Name)
		case want == nil:
			return nil, nil, fmt.Errorf("plan has no tensor %s", t.Name)
		case t.Data == nil:
			return nil, nil, fmt.Errorf("tensor %s has no data (use Zero, FillRandom, or Bind)", t.Name)
		case !slices.Equal(t.Data.Shape(), want):
			return nil, nil, fmt.Errorf("tensor %s has shape %v, plan wants %v", t.Name, t.Data.Shape(), want)
		}
		data[t.Name] = t.Data
		if t.Name == p.output {
			out = t
		}
	}
	for _, name := range p.binds {
		if data[name] == nil {
			return nil, nil, fmt.Errorf("no data bound for tensor %s", name)
		}
	}
	for _, st := range p.stages {
		name := st.data.output
		if data[name] == nil {
			shape := p.Shape(name)
			data[name] = tensor.New(name, shape...)
			if name == p.output {
				out = &Tensor{Name: name, Shape: slices.Clone(shape), Data: data[name]}
			}
		}
	}
	return data, out, nil
}

// BindBatch attaches real data for N problem instances, one tensor set per
// instance, each validated exactly as Bind validates a single set.
// Instances may share input tensors, but a bound output tensor must be
// distinct from every other bound tensor of every instance — instances
// execute concurrently, and a shared output would race.
func (p *Plan) BindBatch(instances ...[]*Tensor) *Binding {
	if len(instances) == 0 {
		return &Binding{plan: p, err: wrapErr(KindExec, "bind-batch", fmt.Errorf("empty batch: bind at least one instance"))}
	}
	return p.bind("bind-batch", instances)
}

// BindStacked attaches real data for batch problem instances stored
// contiguously along a leading batch dimension, Tensor-Go style: each
// stacked tensor has shape [batch, d0, d1, ...] where [d0, d1, ...] is the
// plan's shape for that tensor, and instance i is the zero-copy slice
// data[i*vol : (i+1)*vol]. A stacked output tensor receives every
// instance's result in its slice — one allocation in, one allocation out.
func (p *Plan) BindStacked(batch int, stacked ...*Tensor) *Binding {
	fail := func(err error) *Binding {
		return &Binding{plan: p, err: wrapErr(KindExec, "bind-batch", err)}
	}
	if batch <= 0 {
		return fail(fmt.Errorf("batch must be positive, got %d", batch))
	}
	instances := make([][]*Tensor, batch)
	for _, t := range stacked {
		shape := p.Shape(t.Name)
		if shape == nil {
			return fail(fmt.Errorf("plan has no tensor %s", t.Name))
		}
		if t.Data == nil {
			return fail(fmt.Errorf("stacked tensor %s has no data", t.Name))
		}
		want := append([]int{batch}, shape...)
		if got := t.Data.Shape(); !slices.Equal(got, want) {
			return fail(fmt.Errorf(
				"stacked tensor %s has shape %v, want %v (batch %d over the plan shape %v)", t.Name, got, want, batch, shape))
		}
		vol := 1
		for _, s := range shape {
			vol *= s
		}
		data := t.Data.Data()
		for i := 0; i < batch; i++ {
			view := tensor.FromData(t.Name, data[i*vol:(i+1)*vol], shape...)
			instances[i] = append(instances[i], &Tensor{Name: t.Name, Shape: shape, Format: t.Format, Data: view})
		}
	}
	return p.BindBatch(instances...)
}

// Len returns the number of bound instances (0 when the binding failed).
func (b *Binding) Len() int { return len(b.insts) }

// Output returns instance i's output tensor (after Run it holds that
// instance's result), or nil when the binding failed or i is out of range.
// A bound output is returned as the caller passed it; for stacked bindings
// it is a zero-copy view into the stacked output's slice i.
func (b *Binding) Output(i int) *Tensor {
	if b.err != nil || i < 0 || i >= len(b.outs) {
		return nil
	}
	return b.outs[i]
}

// Tensor returns instance i's data for any tensor of the plan — bound
// tensors, intermediates, and the output alike — or nil for unknown names,
// out-of-range instances, or failed bindings. After Run, an intermediate's
// tensor holds the value its producing stage computed.
func (b *Binding) Tensor(i int, name string) *tensor.Dense {
	if b.err != nil || i < 0 || i >= len(b.insts) {
		return nil
	}
	return b.insts[i][name]
}

// Run executes the plan on every bound instance and returns the simulated
// metrics alongside: stages run in order, leaf kernels compute on the
// tensors, reductions flush into the outputs, consumers read their
// producers' distributed results in place, and the task graph is priced
// under the session's cost model. The accounting runs exactly once however
// many instances are bound — batching never perturbs the cost model — so
// the Result equals a single-instance run's. Real leaf kernels fan out per
// (instance × task) over the worker pool (bound by WithRealWorkers). Run
// aborts with KindCanceled at the runtime's next checkpoint once ctx is
// done (every instance's outputs are then in an unspecified partial state).
func (b *Binding) Run(ctx context.Context, opts ...ExecOption) (*Result, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.plan.exec(ctx, "run", append([]ExecOption{legion.WithReal(), legion.WithBatch(b.insts)}, opts...))
}
