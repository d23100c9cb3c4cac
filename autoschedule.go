package distal

import (
	"fmt"

	"distal/internal/ir"
	"distal/internal/schedule"
)

// autoScheduleCommands derives the owner-computes schedule for stmt on a
// machine with the given grid, as serializable scheduling commands: the
// output tensor's index variables are tiled over the machine grid (one per
// grid dimension, in order) and every tensor's communication is aggregated
// at the task level.
func autoScheduleCommands(stmt *ir.Assignment, grid []int) (schedule.Commands, error) {
	lhs := stmt.LHS.Indices
	if len(lhs) < len(grid) {
		return nil, fmt.Errorf("distal: AutoSchedule needs >= %d output variables, statement has %d",
			len(grid), len(lhs))
	}
	var cs schedule.Commands
	var dist, local []string
	for d := range grid {
		v := lhs[d].Name
		dist = append(dist, v+"_o")
		local = append(local, v+"_i")
		cs = append(cs, schedule.Command{Op: "divide", Args: []string{v, v + "_o", v + "_i", fmt.Sprint(grid[d])}})
	}
	cs = append(cs,
		schedule.Command{Op: "reorder", Args: append(append([]string{}, dist...), local...)},
		schedule.Command{Op: "distribute", Args: dist},
		schedule.Command{Op: "communicate", Args: append([]string{dist[len(dist)-1]}, stmt.TensorNames()...)},
	)
	return cs, nil
}

// AutoSchedule derives a distribution schedule automatically, a first cut
// of the auto-scheduling direction the paper lists as future work (§9). The
// heuristic is owner-computes: the output tensor's index variables are
// tiled over the machine grid (one per grid dimension, in order) and every
// tensor's communication is aggregated at the task level. For computations
// whose data distributions align with the output tiling (TTV, TTM,
// element-wise kernels) this yields communication-free schedules; for
// contractions it yields a broadcast-style schedule comparable to SUMMA
// with one sequential step.
//
// The derived schedule is applied as ordinary scheduling commands, so it
// serializes through ScheduleText like a hand-written one. AutoSchedule
// must be called before any manual scheduling command and returns an error
// (KindSchedule) if the output has fewer index variables than the machine
// has grid dimensions.
func (c *Computation) AutoSchedule() error {
	cs, err := autoScheduleCommands(c.Stmt, c.Machine.M.LeafGrid().Dims)
	if err != nil {
		return wrapErr(KindSchedule, "compile", err)
	}
	return wrapErr(KindSchedule, "compile", c.sched.Apply(cs).Err())
}
