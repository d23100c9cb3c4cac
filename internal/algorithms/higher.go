package algorithms

import (
	"fmt"

	"distal/internal/core"
	"distal/internal/cosma"
	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/schedule"
)

// HigherConfig describes one higher-order tensor kernel instance (§7.2).
type HigherConfig struct {
	// I, J, K, L are the index extents used by the kernel (L is ignored by
	// TTV and Innerprod).
	I, J, K, L int
	// Procs, ProcsPerNode, GPU as in MatmulConfig.
	Procs        int
	ProcsPerNode int
	GPU          bool
}

func (c *HigherConfig) asMatmul() MatmulConfig {
	return MatmulConfig{Procs: c.Procs, ProcsPerNode: c.ProcsPerNode, GPU: c.GPU}
}

func (c *HigherConfig) decl(name string, shape []int, place string) *core.TensorDecl {
	return &core.TensorDecl{
		Name:      name,
		Shape:     append([]int(nil), shape...),
		Placement: distnot.MustParsePlacement(place),
	}
}

// TTV builds A(i,j) = B(i,j,k) * c(k): the 3-tensor is tiled over a 2D grid
// along i and j, the vector is replicated, and the computation is fully
// element-wise with no communication (the schedule the paper uses instead
// of CTF's cast-to-matmul strategy).
func TTV(cfg HigherConfig) (core.Input, error) {
	if err := cfg.check(3); err != nil {
		return core.Input{}, err
	}
	stmt := ir.MustParse("A(i,j) = B(i,j,k) * c(k)")
	gx, gy := cosma.Factor2(cfg.Procs)
	m := cfg.asMatmul().MachineFor(gx, gy)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{gx, gy}).
		Communicate("jo", "A", "B", "c")
	if err := s.Err(); err != nil {
		return core.Input{}, err
	}
	return core.Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"A": cfg.decl("A", []int{cfg.I, cfg.J}, "xy->xy"),
			"B": cfg.decl("B", []int{cfg.I, cfg.J, cfg.K}, "xyz->xy"),
			"c": cfg.decl("c", []int{cfg.K}, "x->**"),
		},
		Schedule: s,
	}, nil
}

// Innerprod builds a = B(i,j,k) * C(i,j,k): node-local reductions followed
// by a global reduction tree into the scalar's owner.
func Innerprod(cfg HigherConfig) (core.Input, error) {
	if err := cfg.check(3); err != nil {
		return core.Input{}, err
	}
	stmt := ir.MustParse("a = B(i,j,k) * C(i,j,k)")
	gx, gy := cosma.Factor2(cfg.Procs)
	m := cfg.asMatmul().MachineFor(gx, gy)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{gx, gy}).
		Communicate("jo", "B", "C")
	if err := s.Err(); err != nil {
		return core.Input{}, err
	}
	return core.Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"a": cfg.decl("a", []int{1}, "x->00"),
			"B": cfg.decl("B", []int{cfg.I, cfg.J, cfg.K}, "xyz->xy"),
			"C": cfg.decl("C", []int{cfg.I, cfg.J, cfg.K}, "xyz->xy"),
		},
		Schedule: s,
	}, nil
}

// TTM builds A(i,j,l) = B(i,j,k) * C(k,l): the i loop is distributed so the
// kernel becomes independent local matrix multiplications with the small
// factor matrix replicated — no inter-node communication (§7.2.2).
func TTM(cfg HigherConfig) (core.Input, error) {
	if err := cfg.check(4); err != nil {
		return core.Input{}, err
	}
	stmt := ir.MustParse("A(i,j,l) = B(i,j,k) * C(k,l)")
	m := cfg.asMatmul().MachineFor(cfg.Procs)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i"}, []string{"io"}, []string{"ii"}, []int{cfg.Procs}).
		Communicate("io", "A", "B", "C")
	if err := s.Err(); err != nil {
		return core.Input{}, err
	}
	return core.Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"A": cfg.decl("A", []int{cfg.I, cfg.J, cfg.L}, "xyz->x"),
			"B": cfg.decl("B", []int{cfg.I, cfg.J, cfg.K}, "xyz->x"),
			"C": cfg.decl("C", []int{cfg.K, cfg.L}, "xy->*"),
		},
		Schedule: s,
	}, nil
}

// MTTKRP builds A(i,l) = B(i,j,k) * C(j,l) * D(k,l) following Ballard et
// al.: the 3-tensor stays in place on a 3D grid, the factor matrices are
// partitioned along their contracted mode and replicated along the other
// grid dimensions, and partial results reduce into the output's owners.
func MTTKRP(cfg HigherConfig) (core.Input, error) {
	if err := cfg.check(4); err != nil {
		return core.Input{}, err
	}
	stmt := ir.MustParse("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)")
	g1, g2, g3 := cosma.Factor3(cfg.Procs)
	m := cfg.asMatmul().MachineFor(g1, g2, g3)
	// The free output mode l is not distributed; it must sit below the
	// distributed prefix, so the compound DistributeOnto cannot be used.
	s := schedule.New(stmt).
		Divide("i", "io", "ii", g1).
		Divide("j", "jo", "ji", g2).
		Divide("k", "ko", "ki", g3).
		Reorder("io", "jo", "ko", "ii", "ji", "ki", "l").
		Distribute("io", "jo", "ko").
		Communicate("ko", "A", "B", "C", "D")
	if err := s.Err(); err != nil {
		return core.Input{}, err
	}
	return core.Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"A": cfg.decl("A", []int{cfg.I, cfg.L}, "ab->a00"),
			"B": cfg.decl("B", []int{cfg.I, cfg.J, cfg.K}, "abc->abc"),
			"C": cfg.decl("C", []int{cfg.J, cfg.L}, "ab->*a*"),
			"D": cfg.decl("D", []int{cfg.K, cfg.L}, "ab->**a"),
		},
		Schedule: s,
	}, nil
}

func (c *HigherConfig) check(rank int) error {
	if c.I <= 0 || c.J <= 0 || c.K <= 0 || c.Procs <= 0 {
		return fmt.Errorf("algorithms: bad higher-order config %+v", *c)
	}
	if rank == 4 && c.L <= 0 {
		return fmt.Errorf("algorithms: kernel needs L > 0, got %+v", *c)
	}
	return nil
}
