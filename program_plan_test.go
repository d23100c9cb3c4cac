package distal

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"distal/internal/program"
	"distal/internal/tensor"
)

// chainSchedule is the SUMMA-style schedule of one GEMM stage over a 2x2
// grid, parameterized by the stage's tensor names (out, lhs, rhs).
func chainSchedule(out, lhs, rhs string) string {
	return "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) " +
		"distribute(io,jo) split(k,ko,ki,16) reorder(io,jo,ko,ii,ji,ki) " +
		"communicate(jo," + out + ") communicate(ko," + lhs + "," + rhs + ")"
}

// chainRequest is the canonical 2-stage GEMM chain E = (A*B)*C with every
// tensor tiled xy->xy, so the intermediate D hands off without repartition.
func chainRequest(n int) Request {
	return Request{
		Shapes: map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
		Stmts: []Statement{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)",
				Formats:  map[string]string{"A": "xy->xy", "B": "xy->xy", "D": "xy->xy"},
				Schedule: chainSchedule("D", "A", "B")},
			{Stmt: "E(i,j) = D(i,k) * C(k,j)",
				Formats:  map[string]string{"D": "xy->xy", "C": "xy->xy", "E": "xy->xy"},
				Schedule: chainSchedule("E", "D", "C")},
		},
	}
}

func TestCompileProgramValidation(t *testing.T) {
	nn := []int{8, 8}
	cases := []struct {
		name string
		req  Request
		want string // substring of the expected error
	}{
		{
			name: "no statements",
			req:  Request{Shapes: map[string][]int{"A": nn}},
			want: "no statements",
		},
		{
			name: "top-level stmt set",
			req: Request{
				Stmt:   "D(i,j) = A(i,k) * B(k,j)",
				Shapes: map[string][]int{"A": nn, "B": nn},
				Stmts:  []Statement{{Stmt: "E(i,j) = A(i,k) * B(k,j)"}},
			},
			want: "must be empty",
		},
		{
			name: "intermediate name collides with Shapes",
			req: Request{
				Shapes: map[string][]int{"A": nn, "B": nn, "C": nn, "D": nn},
				Stmts: []Statement{
					{Stmt: "D(i,j) = A(i,k) * B(k,j)"},
					{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
				},
			},
			want: "Shapes declares D",
		},
		{
			name: "cycle",
			req: Request{
				Shapes: map[string][]int{"A": nn},
				Stmts: []Statement{
					{Stmt: "D(i,j) = E(i,k) * A(k,j)"},
					{Stmt: "E(i,j) = D(i,k) * A(k,j)"},
				},
			},
			want: "dependency cycle",
		},
		{
			name: "bad statement format",
			req: Request{
				Shapes: map[string][]int{"A": nn, "B": nn},
				Stmts: []Statement{
					{Stmt: "D(i,j) = A(i,k) * B(k,j)", Formats: map[string]string{"D": "not a format"}},
				},
			},
			want: "D",
		},
	}
	sess := NewSession(NewMachine(CPU, 2, 2))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sess.Compile(context.Background(), tc.req)
			if err == nil {
				t.Fatalf("Compile succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if KindOf(err) != KindParse {
				t.Fatalf("KindOf = %v, want KindParse", KindOf(err))
			}
		})
	}
}

// TestOneStatementFormsEquivalent: a statement compiled as Request{Stmt}
// and as a one-entry Request{Stmts} resolves to the same stage plan (the
// second compile is a plan-cache hit), simulates to identical metrics, and
// runs to bit-identical outputs.
func TestOneStatementFormsEquivalent(t *testing.T) {
	const n = 32
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	formats := map[string]string{"A": "xy->xy", "B": "xy->xy", "D": "xy->xy"}
	single, err := sess.Compile(ctx, Request{
		Stmt:     "D(i,j) = A(i,k) * B(k,j)",
		Shapes:   map[string][]int{"A": {n, n}, "B": {n, n}, "D": {n, n}},
		Formats:  formats,
		Schedule: chainSchedule("D", "A", "B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := sess.Compile(ctx, Request{
		Shapes: map[string][]int{"A": {n, n}, "B": {n, n}},
		Stmts:  []Statement{{Stmt: "D(i,j) = A(i,k) * B(k,j)", Formats: formats, Schedule: chainSchedule("D", "A", "B")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := staged.StageMetas(); len(got) != 1 || got[0].PlanKey != single.Key() {
		t.Fatalf("staged form resolved to stages %+v, want the one stage %s", got, single.Key())
	}
	if !staged.Stats().Cached {
		t.Fatal("staged form of a compiled statement missed the plan cache")
	}
	if st := sess.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 hit", st)
	}

	simSingle, err := single.Simulate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	simStaged, err := staged.Simulate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(simSingle, simStaged) {
		t.Fatalf("simulated metrics differ:\n single %+v\n staged %+v", simSingle, simStaged)
	}

	tiled := MustFormat("xy->xy")
	a := NewTensor("A", tiled, n, n).FillRandom(1)
	b := NewTensor("B", tiled, n, n).FillRandom(2)
	bs := single.Bind(NewTensor("D", tiled, n, n).Zero(), a, b)
	if _, err := bs.Run(ctx); err != nil {
		t.Fatal(err)
	}
	bt := staged.Bind(a, b)
	if _, err := bt.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if diff := bs.Output(0).Data.MaxAbsDiff(bt.Output(0).Data); diff != 0 {
		t.Fatalf("outputs differ: max abs diff %g", diff)
	}
}

// TestProgramDifferential runs the 2-stage chain as a plan DAG and as two
// sequential single-statement plans with an explicit gather/re-upload of the
// intermediate in between, across a worker-count matrix. Stage results must
// be bit-identical: the DAG's consumer reads the same canonical intermediate
// a standalone run would bind.
func TestProgramDifferential(t *testing.T) {
	const n = 32
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	pp, err := sess.Compile(ctx, chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(pp.Tensors(), ","); got != "A,B,C" {
		t.Fatalf("Tensors = %s, want A,B,C", got)
	}
	if pp.Output() != "E" || pp.Stages() != 2 || pp.Repartitions() != 0 {
		t.Fatalf("plan shape: output=%s stages=%d reparts=%d, want E/2/0",
			pp.Output(), pp.Stages(), pp.Repartitions())
	}

	tiled := MustFormat("xy->xy")
	mk := func(name string, seed int64) *Tensor {
		return NewTensor(name, tiled, n, n).FillRandom(seed)
	}

	for _, workers := range []int{1, 2, 4} {
		// DAG execution: one binding, intermediates stay distributed.
		a, b, c := mk("A", 1), mk("B", 2), mk("C", 3)
		pb := pp.Bind(a, b, c)
		if _, err := pb.Run(ctx, WithRealWorkers(workers)); err != nil {
			t.Fatalf("workers=%d: DAG run: %v", workers, err)
		}

		// Sequential baseline: stage 1 alone, gather D to the host side,
		// re-upload it as an input of stage 2.
		p1, err := sess.Compile(ctx, Request{
			Stmt:     "D(i,j) = A(i,k) * B(k,j)",
			Shapes:   map[string][]int{"A": {n, n}, "B": {n, n}, "D": {n, n}},
			Formats:  map[string]string{"A": "xy->xy", "B": "xy->xy", "D": "xy->xy"},
			Schedule: chainSchedule("D", "A", "B"),
		})
		if err != nil {
			t.Fatal(err)
		}
		d := NewTensor("D", tiled, n, n).Zero()
		b1 := p1.Bind(mk("A", 1), mk("B", 2), d)
		if _, err := b1.Run(ctx, WithRealWorkers(workers)); err != nil {
			t.Fatalf("workers=%d: seq stage 1: %v", workers, err)
		}
		p2, err := sess.Compile(ctx, Request{
			Stmt:     "E(i,j) = D(i,k) * C(k,j)",
			Shapes:   map[string][]int{"D": {n, n}, "C": {n, n}, "E": {n, n}},
			Formats:  map[string]string{"D": "xy->xy", "C": "xy->xy", "E": "xy->xy"},
			Schedule: chainSchedule("E", "D", "C"),
		})
		if err != nil {
			t.Fatal(err)
		}
		d2 := NewTensor("D", tiled, n, n)
		d2.Data = d.Data // the gathered intermediate, re-uploaded
		e := NewTensor("E", tiled, n, n).Zero()
		b2 := p2.Bind(d2, mk("C", 3), e)
		if _, err := b2.Run(ctx, WithRealWorkers(workers)); err != nil {
			t.Fatalf("workers=%d: seq stage 2: %v", workers, err)
		}

		if diff := pb.Tensor(0, "D").MaxAbsDiff(d.Data); diff != 0 {
			t.Fatalf("workers=%d: intermediate D differs from standalone stage: max abs diff %g", workers, diff)
		}
		if diff := pb.Output(0).Data.MaxAbsDiff(e.Data); diff != 0 {
			t.Fatalf("workers=%d: output E differs from sequential baseline: max abs diff %g", workers, diff)
		}

		// And both must agree with the reference interpreter.
		prog, err := program.Parse([]program.Statement{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)"},
			{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
		}, map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := program.Evaluate(prog, map[string]*tensor.Dense{
			"A": a.Data, "B": b.Data, "C": c.Data,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !pb.Output(0).Data.EqualWithin(ref["E"], 1e-9) {
			t.Fatalf("workers=%d: DAG output diverges from reference: max abs diff %g",
				workers, pb.Output(0).Data.MaxAbsDiff(ref["E"]))
		}
	}
}

// TestProgramSimBeatsSequential asserts the DAG moves strictly fewer
// inter-node bytes than the sequential baseline, where the baseline pays the
// two stages plus the gather-to-root and re-upload of the intermediate that
// sequential single-statement execution implies.
func TestProgramSimBeatsSequential(t *testing.T) {
	const n = 256
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	pp, err := sess.Compile(ctx, chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	dag, err := pp.Simulate(ctx, WithTrace())
	if err != nil {
		t.Fatal(err)
	}

	// Zero gather-to-root copies of the intermediate: no traced copy moves
	// the full volume of D in one piece.
	for _, cr := range dag.Trace {
		if cr.Region == "D" && cr.Rect.Volume() == n*n {
			t.Fatalf("DAG gathered intermediate D to one leaf: %+v", cr)
		}
	}

	stage := func(stmt, out, lhs, rhs string) *Result {
		p, err := sess.Compile(ctx, Request{
			Stmt:     stmt,
			Shapes:   map[string][]int{lhs: {n, n}, rhs: {n, n}, out: {n, n}},
			Formats:  map[string]string{lhs: "xy->xy", rhs: "xy->xy", out: "xy->xy"},
			Schedule: chainSchedule(out, lhs, rhs),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Simulate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	s1 := stage("D(i,j) = A(i,k) * B(k,j)", "D", "A", "B")
	s2 := stage("E(i,j) = D(i,k) * C(k,j)", "E", "D", "C")

	// Sequential inter-stage traffic: D leaves the machine through leaf
	// (0,0) and comes back the same way (initial placement is priced free,
	// so the via-root legs are the honest cost of the handoff).
	down, _, err := sess.RedistributeCost(NewTensor("D", MustFormat("xy->xy"), n, n), MustFormat("xy->00"))
	if err != nil {
		t.Fatal(err)
	}
	up, _, err := sess.RedistributeCost(NewTensor("D", MustFormat("xy->00"), n, n), MustFormat("xy->xy"))
	if err != nil {
		t.Fatal(err)
	}
	seq := s1.InterBytes + s2.InterBytes + down + up
	if dag.InterBytes >= seq {
		t.Fatalf("DAG inter-node bytes %d not below sequential baseline %d", dag.InterBytes, seq)
	}
}

// TestProgramPlanCaching: recompiling the same program is fully cached, with
// a stable key; compiling a program sharing one statement reuses that stage.
func TestProgramPlanCaching(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	pp1, err := sess.Compile(ctx, chainRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if pp1.Stats().Cached {
		t.Fatal("first compile reported cached")
	}
	pp2, err := sess.Compile(ctx, chainRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if !pp2.Stats().Cached {
		t.Fatal("second compile was not fully cached")
	}
	if pp1.Key() != pp2.Key() {
		t.Fatalf("keys differ: %s vs %s", pp1.Key(), pp2.Key())
	}
}

// TestProgramRepartition: when producer and consumer disagree on the
// intermediate's format, an explicit repartition stage appears and the
// numerics still match the reference chain.
func TestProgramRepartition(t *testing.T) {
	const n = 32
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	req := Request{
		Shapes: map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
		Stmts: []Statement{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)",
				Formats: map[string]string{"A": "xy->xy", "B": "xy->xy", "D": "xy->xy"}},
			{Stmt: "E(i,j) = D(i,k) * C(k,j)",
				Formats: map[string]string{"D": "xy->x*", "C": "xy->xy", "E": "xy->xy"}},
		},
	}
	pp, err := sess.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Stages() != 3 || pp.Repartitions() != 1 {
		t.Fatalf("stages=%d reparts=%d, want 3/1", pp.Stages(), pp.Repartitions())
	}
	tiled := MustFormat("xy->xy")
	a := NewTensor("A", tiled, n, n).FillRandom(7)
	b := NewTensor("B", tiled, n, n).FillRandom(8)
	c := NewTensor("C", tiled, n, n).FillRandom(9)
	pb := pp.Bind(a, b, c)
	if _, err := pb.Run(ctx); err != nil {
		t.Fatal(err)
	}
	prog, err := program.Parse([]program.Statement{
		{Stmt: "D(i,j) = A(i,k) * B(k,j)"},
		{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
	}, map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := program.Evaluate(prog, map[string]*tensor.Dense{"A": a.Data, "B": b.Data, "C": c.Data})
	if err != nil {
		t.Fatal(err)
	}
	if !pb.Output(0).Data.EqualWithin(ref["E"], 1e-9) {
		t.Fatalf("repartitioned chain diverges from reference: max abs diff %g",
			pb.Output(0).Data.MaxAbsDiff(ref["E"]))
	}
}

// TestProgramBindErrors: only leaf inputs bind; everything else is a typed
// KindExec error.
func TestProgramBindErrors(t *testing.T) {
	const n = 16
	sess := NewSession(NewMachine(CPU, 2, 2))
	pp, err := sess.Compile(context.Background(), chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	tiled := MustFormat("xy->xy")
	a := NewTensor("A", tiled, n, n).FillRandom(1)
	b := NewTensor("B", tiled, n, n).FillRandom(2)
	c := NewTensor("C", tiled, n, n).FillRandom(3)
	cases := []struct {
		name string
		bind []*Tensor
		want string
	}{
		{"computed tensor", []*Tensor{a, b, c, NewTensor("D", tiled, n, n).Zero()}, "computed by the program"},
		{"unknown tensor", []*Tensor{a, b, c, NewTensor("X", tiled, n, n).Zero()}, "no tensor X"},
		{"missing leaf", []*Tensor{a, b}, "no data bound for tensor C"},
		{"wrong shape", []*Tensor{a, b, NewTensor("C", tiled, n, 2*n).Zero()}, "shape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pb := pp.Bind(tc.bind...)
			_, err := pb.Run(context.Background())
			if err == nil {
				t.Fatal("Run succeeded on a bad binding")
			}
			if !strings.Contains(err.Error(), tc.want) || KindOf(err) != KindExec {
				t.Fatalf("error = %v (kind %v), want KindExec containing %q", err, KindOf(err), tc.want)
			}
		})
	}
}

// TestProgramBatch: a batched chain produces per-instance results equal to
// per-instance single runs.
func TestProgramBatch(t *testing.T) {
	const n, k = 24, 3
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	pp, err := sess.Compile(ctx, chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	tiled := MustFormat("xy->xy")
	var insts [][]*Tensor
	for i := 0; i < k; i++ {
		insts = append(insts, []*Tensor{
			NewTensor("A", tiled, n, n).FillRandom(int64(10 + i)),
			NewTensor("B", tiled, n, n).FillRandom(int64(20 + i)),
			NewTensor("C", tiled, n, n).FillRandom(int64(30 + i)),
		})
	}
	bb := pp.BindBatch(insts...)
	if _, err := bb.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if bb.Len() != k {
		t.Fatalf("got %d instances, want %d", bb.Len(), k)
	}
	for i := 0; i < k; i++ {
		single := pp.Bind(insts[i]...)
		if _, err := single.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if diff := bb.Output(i).Data.MaxAbsDiff(single.Output(0).Data); diff != 0 {
			t.Fatalf("instance %d differs from single run: max abs diff %g", i, diff)
		}
	}
}
