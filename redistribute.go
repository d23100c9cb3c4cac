package distal

import (
	"context"
	"fmt"
)

// Redistribute compiles (through the plan cache) a plan that moves tensor
// t into the dst format on the session's machine (§1: "easily transform
// data between distributed layouts to match the computation"). It is
// compiled through the ordinary pipeline — the layout-change program of
// plan DAG repartition stages, an identity statement whose output is
// placed under the destination format and whose loops are distributed
// owner-computes over the destination — so the runtime discovers exactly
// the copies the layout change requires, prices them, and (in Real mode)
// performs them.
//
// The returned tensor is the destination, with zeroed data when t has
// data: plan.Bind(out, t).Run(ctx) leaves t's contents in out.Data.
func (s *Session) Redistribute(t *Tensor, dst Format) (*Plan, *Tensor, error) {
	if len(t.Shape) == 0 || len(t.Shape) > 6 {
		return nil, nil, fmt.Errorf("distal: redistribute supports ranks 1..6, got %d", len(t.Shape))
	}
	if dst.Placement == nil {
		return nil, nil, fmt.Errorf("distal: redistribute destination format is empty (use ParseFormat)")
	}
	out := NewTensor(t.Name+"_r", dst, t.Shape...)
	if t.Data != nil {
		out.Zero()
	}
	expr, sched := layoutChange(out.Name, t.Name, len(t.Shape), s.machine.Processors())
	comp, err := s.Define(expr, out, t)
	if err != nil {
		return nil, nil, err
	}
	if err := comp.ApplySchedule(sched); err != nil {
		return nil, nil, err
	}
	plan, err := comp.Compile()
	if err != nil {
		return nil, nil, err
	}
	return plan, out, nil
}

// RedistributeCost simulates the layout change under the session's cost
// model and returns moved bytes and simulated seconds without touching
// data.
func (s *Session) RedistributeCost(t *Tensor, dst Format) (bytes int64, seconds float64, err error) {
	plan, _, err := s.Redistribute(t, dst)
	if err != nil {
		return 0, 0, err
	}
	res, err := plan.Simulate(context.Background())
	if err != nil {
		return 0, 0, err
	}
	return res.IntraBytes + res.InterBytes, res.Time, nil
}
