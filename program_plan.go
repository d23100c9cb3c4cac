package distal

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"distal/internal/legion"
	"distal/internal/obs"
	"distal/internal/program"
)

// CompileProgram compiles a request into a Plan.
//
// Deprecated: use Compile, which accepts both request forms.
func (s *Session) CompileProgram(ctx context.Context, req Request) (*Plan, error) {
	return s.Compile(ctx, req)
}

// compileProgram is Compile for a multi-statement request: req.Stmts
// carries the statements (with per-statement formats and schedules) and
// req.Shapes declares the leaf inputs only — intermediate shapes are
// inferred from their producers, and a Shapes entry for an assigned tensor
// (equivalently, an intermediate name colliding with an input's) is
// rejected as KindParse. Each stage compiles exactly as a single-statement
// request would, through the plan cache, so re-compiling a program whose
// statements were seen before costs no compiler run at all, and two
// programs sharing a statement share its cached program.
func (s *Session) compileProgram(ctx context.Context, req Request) (*Plan, error) {
	ctx, sp := obs.Start(ctx, "compile-program")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, "compile-program", err)
	}
	if req.Stmt != "" || req.Schedule != "" || len(req.Formats) > 0 {
		return nil, wrapErr(KindParse, "compile-program",
			fmt.Errorf("multi-statement requests put statements, formats, and schedules inside Stmts; the top-level Stmt/Formats/Schedule must be empty"))
	}
	specs := make([]program.Statement, len(req.Stmts))
	for i, st := range req.Stmts {
		specs[i] = program.Statement{Stmt: st.Stmt, Formats: st.Formats, Schedule: st.Schedule}
	}
	prog, err := program.Parse(specs, req.Shapes)
	if err != nil {
		return nil, wrapErr(KindParse, "compile-program", err)
	}

	// taken guards repartition-region naming against every tensor of the
	// program (and previously inserted repartitions).
	taken := map[string]bool{}
	for name := range prog.Shapes {
		taken[name] = true
	}
	type placed struct {
		idx    int    // stage holding this (tensor, layout)
		region string // region name in that stage's program
	}
	var (
		built    []stage
		placedAt = map[string]placed{} // name + "\x00" + canonical format -> location
		builtOf  = map[string]int{}    // assigned tensor -> producing stage index
		fmtOf    = map[string]string{} // assigned tensor -> canonical producer format
	)
	layoutKey := func(name, canon string) string { return name + "\x00" + canon }
	for _, st := range prog.Stages {
		assign := st.Assign
		lhs := assign.LHS.Tensor
		stageShapes := map[string][]int{}
		canon := map[string]string{}
		for _, name := range assign.TensorNames() {
			stageShapes[name] = prog.Shapes[name]
			c, ferr := effectiveFormat(st.Src.Formats, name, len(prog.Shapes[name]))
			if ferr != nil {
				return nil, wrapErr(KindParse, "compile-program", fmt.Errorf("statement %d: %w", st.Index, ferr))
			}
			canon[name] = c
		}
		var inherit []legion.Handoff
		var freshLeaves []string
		for _, name := range assign.TensorNames() {
			if name == lhs {
				continue
			}
			key := layoutKey(name, canon[name])
			if pi, ok := builtOf[name]; ok {
				// An earlier stage computed this tensor: adopt its instances
				// when the layouts agree, repartition owner-to-owner when
				// they do not — never through a single leaf.
				if fmtOf[name] == canon[name] {
					inherit = append(inherit, legion.Handoff{From: pi, Region: name, To: name})
					continue
				}
				loc, ok := placedAt[key]
				if !ok {
					rst, rerr := s.repartitionStage(ctx, name, prog.Shapes[name], fmtOf[name], canon[name], pi, taken)
					if rerr != nil {
						return nil, rerr
					}
					loc = placed{idx: len(built), region: rst.data.output}
					built = append(built, rst)
					placedAt[key] = loc
				}
				inherit = append(inherit, legion.Handoff{From: loc.idx, Region: loc.region, To: name})
				continue
			}
			// A leaf input: share the placed instances with any earlier
			// stage that reads it under the same layout (read-only, so
			// adoption is free); a different layout places its own copy.
			if loc, ok := placedAt[key]; ok {
				inherit = append(inherit, legion.Handoff{From: loc.idx, Region: loc.region, To: name})
			} else {
				freshLeaves = append(freshLeaves, key)
			}
		}
		sctx, ssp := obs.Start(ctx, "compile-stage")
		ssp.SetAttr("statement", fmt.Sprint(st.Index))
		ssp.SetAttr("output", lhs)
		cst, cerr := s.compileStage(sctx, Request{
			Stmt:     st.Src.Stmt,
			Shapes:   stageShapes,
			Formats:  st.Src.Formats,
			Schedule: st.Src.Schedule,
		})
		ssp.End()
		if cerr != nil {
			return nil, &Error{Kind: KindOf(cerr), Op: "compile-program", Err: fmt.Errorf("statement %d: %w", st.Index, cerr)}
		}
		idx := len(built)
		cst.inherit = inherit
		built = append(built, cst)
		for _, key := range freshLeaves {
			name := key[:strings.IndexByte(key, 0)]
			placedAt[key] = placed{idx: idx, region: name}
		}
		builtOf[lhs] = idx
		fmtOf[lhs] = canon[lhs]
		placedAt[layoutKey(lhs, canon[lhs])] = placed{idx: idx, region: lhs}
	}

	h := sha256.New()
	for _, st := range built {
		h.Write([]byte(st.key))
		h.Write([]byte{0})
	}
	return s.newPlan(hex.EncodeToString(h.Sum(nil)), built, prog.Inputs(), prog.Output()), nil
}

// effectiveFormat resolves the canonical rendering of the format a stage
// places tensor name under: the statement's annotation when present, the
// canonical tiling of the rank otherwise (distribution notation normalizes
// through Placement.String, so two annotations spelled differently but
// placing identically compare equal).
func effectiveFormat(formats map[string]string, name string, rank int) (string, error) {
	if src, ok := formats[name]; ok {
		f, err := ParseFormat(src)
		if err != nil {
			return "", fmt.Errorf("tensor %s: %w", name, err)
		}
		return f.Placement.String(), nil
	}
	if rank > 6 {
		return "", fmt.Errorf("tensor %s has rank %d; the default tiling supports ranks up to 6 (give a Formats entry)", name, rank)
	}
	return Tiled(rank).Placement.String(), nil
}

// layoutChange returns the statement and schedule of the program that
// copies tensor src into dst (same shape, each under its own format):
// the identity statement, scheduled owner-computes over the destination —
// the leading dimension distributed across all procs leaf processors and
// all communication aggregated at the task level. This is correct for any
// (src, dst) placement pair: reads gather from the source owners, writes
// flush to the destination owners, so the runtime performs exactly the
// copies the layout change requires.
func layoutChange(dst, src string, rank, procs int) (stmt, sched string) {
	vars := []string{"i", "j", "k", "l", "u", "v"}[:rank]
	idx := strings.Join(vars, ",")
	stmt = fmt.Sprintf("%s(%s) = %s(%s)", dst, idx, src, idx)
	sched = fmt.Sprintf("divide(%s,d0,d0i,%d) reorder(%s) distribute(d0) communicate(d0,%s,%s)",
		vars[0], procs, strings.Join(append([]string{"d0", "d0i"}, vars[1:]...), ","), dst, src)
	return stmt, sched
}

// repartitionStage compiles the explicit layout change between a producer's
// format and a consumer's (see layoutChange), placed src-format in and
// dst-format out. The stage resolves through the plan cache like any other,
// and its input region adopts the producer's instances directly.
func (s *Session) repartitionStage(ctx context.Context, name string, shape []int, srcFmt, dstFmt string, from int, taken map[string]bool) (stage, error) {
	if len(shape) == 0 || len(shape) > 6 {
		return stage{}, wrapErr(KindParse, "compile-program",
			fmt.Errorf("intermediate %s has rank %d; repartitioning supports ranks 1..6", name, len(shape)))
	}
	rname := name + "__r"
	for i := 2; taken[rname]; i++ {
		rname = fmt.Sprintf("%s__r%d", name, i)
	}
	taken[rname] = true
	stmt, sched := layoutChange(rname, name, len(shape), s.machine.Processors())
	ctx, rsp := obs.Start(ctx, "compile-repartition")
	rsp.SetAttr("tensor", name)
	defer rsp.End()
	st, err := s.compileStage(ctx, Request{
		Stmt:     stmt,
		Shapes:   map[string][]int{name: shape, rname: shape},
		Formats:  map[string]string{name: srcFmt, rname: dstFmt},
		Schedule: sched,
	})
	if err != nil {
		return stage{}, &Error{Kind: KindOf(err), Op: "compile-program",
			Err: fmt.Errorf("repartitioning %s from %q to %q: %w", name, srcFmt, dstFmt, err)}
	}
	st.inherit = []legion.Handoff{{From: from, Region: name, To: name}}
	st.repart = true
	return st, nil
}
