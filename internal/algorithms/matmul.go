// Package algorithms instantiates the distributed algorithms of the DISTAL
// paper as (data distribution, schedule) pairs over the compiler in
// internal/core: the six matrix-multiplication algorithms of Figure 9
// (Cannon, PUMMA, SUMMA, Johnson, Solomonik's 2.5D, and COSMA) and the four
// higher-order tensor kernels of §7.2 (TTV, Innerprod, TTM, MTTKRP).
package algorithms

import (
	"fmt"

	"distal/internal/core"
	"distal/internal/cosma"
	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/machine"
	"distal/internal/schedule"
	"distal/internal/tensor"
)

// Alg names a matrix-multiplication algorithm from Figure 9.
type Alg string

const (
	Cannon    Alg = "cannon"
	PUMMA     Alg = "pumma"
	SUMMA     Alg = "summa"
	Johnson   Alg = "johnson"
	Solomonik Alg = "solomonik"
	COSMA     Alg = "cosma"
)

// MatmulAlgs lists the algorithms in the paper's order.
var MatmulAlgs = []Alg{Cannon, PUMMA, SUMMA, Johnson, Solomonik, COSMA}

// MatmulConfig describes one matrix-multiplication instance.
type MatmulConfig struct {
	// N is the square matrix dimension.
	N int
	// Procs is the number of leaf processors.
	Procs int
	// ProcsPerNode groups consecutive processors into nodes (0: one proc
	// per node).
	ProcsPerNode int
	// GPU selects GPU processors and framebuffer memories.
	GPU bool
	// ChunkSize is the SUMMA/PUMMA pipeline chunk (0: one tile).
	ChunkSize int
	// ReplicationC is the 2.5D replication factor (0: chosen automatically).
	ReplicationC int
	// MemWords is the per-processor memory available to the COSMA scheduler
	// (0: unbounded).
	MemWords float64
}

// MachineFor builds the machine for the given grid under this config.
func (c MatmulConfig) MachineFor(dims ...int) *machine.Machine {
	mem, proc := machine.SysMem, machine.CPU
	if c.GPU {
		mem, proc = machine.GPUFBMem, machine.GPU
	}
	m := machine.New(machine.NewGrid(dims...), mem, proc)
	if c.ProcsPerNode > 0 {
		m = m.WithProcsPerNode(c.ProcsPerNode)
	}
	return m
}

func (c MatmulConfig) decl(name, place string) *core.TensorDecl {
	return &core.TensorDecl{
		Name:      name,
		Shape:     []int{c.N, c.N},
		Placement: distnot.MustParsePlacement(place),
	}
}

// Data builds the data of one Real-mode execution of in, keyed by tensor
// name (one legion.Options.Batch instance): the output zeroed, and the
// statement's inputs, in statement order, filled deterministically from
// seed, seed+1, ...
func Data(in core.Input, seed int64) map[string]*tensor.Dense {
	data := map[string]*tensor.Dense{}
	for _, name := range in.Stmt.TensorNames() {
		d := tensor.New(name, in.Tensors[name].Shape...)
		if name != in.Stmt.LHS.Tensor {
			d.FillRandom(seed)
			seed++
		}
		data[name] = d
	}
	return data
}

// Matmul builds the compilation input for A(i,j) = B(i,k) * C(k,j) under
// the named algorithm.
func Matmul(alg Alg, cfg MatmulConfig) (core.Input, error) {
	if cfg.N <= 0 || cfg.Procs <= 0 {
		return core.Input{}, fmt.Errorf("algorithms: bad config %+v", cfg)
	}
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	switch alg {
	case Cannon, PUMMA, SUMMA:
		return matmul2D(alg, stmt, cfg)
	case Johnson:
		return matmulJohnson(stmt, cfg)
	case Solomonik:
		return matmulSolomonik(stmt, cfg)
	case COSMA:
		return matmulCOSMA(stmt, cfg)
	default:
		return core.Input{}, fmt.Errorf("algorithms: unknown algorithm %q", alg)
	}
}

// matmul2D builds the three 2D algorithms; they share machine and data
// distribution and differ only in schedule (Fig. 9).
func matmul2D(alg Alg, stmt *ir.Assignment, cfg MatmulConfig) (core.Input, error) {
	gx, gy := cosma.Factor2(cfg.Procs)
	m := cfg.MachineFor(gx, gy)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{gx, gy})
	switch alg {
	case SUMMA:
		chunk := cfg.ChunkSize
		if chunk == 0 {
			chunk = ceilDiv(cfg.N, gx)
		}
		s.Split("k", "ko", "ki", chunk).
			Reorder("ko", "ii", "ji", "ki").
			Communicate("jo", "A").
			Communicate("ko", "B", "C")
	case Cannon:
		s.Divide("k", "ko", "ki", gx).
			Reorder("ko", "ii", "ji", "ki").
			Rotate("ko", []string{"io", "jo"}, "kos").
			Communicate("jo", "A").
			Communicate("kos", "B", "C")
	case PUMMA:
		s.Divide("k", "ko", "ki", gx).
			Reorder("ko", "ii", "ji", "ki").
			Rotate("ko", []string{"io"}, "kos").
			Communicate("jo", "A").
			Communicate("kos", "B", "C")
	}
	if err := s.Err(); err != nil {
		return core.Input{}, err
	}
	return core.Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"A": cfg.decl("A", "xy->xy"),
			"B": cfg.decl("B", "xy->xy"),
			"C": cfg.decl("C", "xy->xy"),
		},
		Schedule: s,
	}, nil
}

// matmulJohnson builds the 3D algorithm: inputs fixed to faces of the
// processor cube, fully distributed i,j,k, and a distributed reduction of A.
func matmulJohnson(stmt *ir.Assignment, cfg MatmulConfig) (core.Input, error) {
	g1, g2, g3 := cosma.Factor3(cfg.Procs)
	m := cfg.MachineFor(g1, g2, g3)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j", "k"}, []string{"io", "jo", "ko"}, []string{"ii", "ji", "ki"}, []int{g1, g2, g3}).
		Communicate("ko", "A", "B", "C")
	if err := s.Err(); err != nil {
		return core.Input{}, err
	}
	return core.Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"A": cfg.decl("A", "xy->xy0"),
			"B": cfg.decl("B", "xz->x0z"),
			"C": cfg.decl("C", "zy->0yz"),
		},
		Schedule: s,
	}, nil
}

// matmulSolomonik builds the 2.5D algorithm: a (g, g, c) grid where each of
// the c slices runs a Cannon-style rotation over a fraction of k and the
// slices reduce into the face holding A.
func matmulSolomonik(stmt *ir.Assignment, cfg MatmulConfig) (core.Input, error) {
	c := cfg.ReplicationC
	if c == 0 {
		c = pickReplication(cfg.Procs)
	}
	if cfg.Procs%c != 0 || !isSquare(cfg.Procs/c) {
		return core.Input{}, fmt.Errorf("algorithms: 2.5D needs p/c to be a perfect square (p=%d c=%d)", cfg.Procs, c)
	}
	g := isqrt(cfg.Procs / c)
	m := cfg.MachineFor(g, g, c)
	steps := g / c
	if steps < 1 {
		steps = 1
	}
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j", "k"}, []string{"io", "jo", "ko"}, []string{"ii", "ji", "ki"}, []int{g, g, c}).
		Divide("ki", "kio", "kii", steps).
		Reorder("kio", "ii", "ji", "kii").
		Rotate("kio", []string{"io", "jo"}, "kios").
		Communicate("jo", "A").
		Communicate("kios", "B", "C")
	if err := s.Err(); err != nil {
		return core.Input{}, err
	}
	return core.Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"A": cfg.decl("A", "xy->xy0"),
			"B": cfg.decl("B", "xy->xy0"),
			"C": cfg.decl("C", "xy->xy0"),
		},
		Schedule: s,
	}, nil
}

// matmulCOSMA asks the COSMA scheduler for the optimal grid and step count,
// then generates the distribution layer of COSMA from them.
func matmulCOSMA(stmt *ir.Assignment, cfg MatmulConfig) (core.Input, error) {
	mem := cfg.MemWords
	if mem == 0 {
		mem = 1e18
	}
	d := cosma.Choose(cfg.N, cfg.N, cfg.N, cfg.Procs, mem)
	m := cfg.MachineFor(d.Gx, d.Gy, d.Gz)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j", "k"}, []string{"io", "jo", "ko"}, []string{"ii", "ji", "ki"}, []int{d.Gx, d.Gy, d.Gz}).
		Divide("ki", "kio", "kii", d.Steps).
		Reorder("kio", "ii", "ji", "kii").
		Communicate("ko", "A").
		Communicate("kio", "B", "C")
	if err := s.Err(); err != nil {
		return core.Input{}, err
	}
	return core.Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"A": cfg.decl("A", "xy->xy0"),
			"B": cfg.decl("B", "xz->x0z"),
			"C": cfg.decl("C", "zy->0yz"),
		},
		Schedule: s,
	}, nil
}

// pickReplication chooses the largest c <= p^(1/3) with p/c a perfect
// square; if no such c exists it falls back to the smallest feasible c so
// the 2.5D grid is always constructible.
func pickReplication(p int) int {
	best := 0
	for c := 1; c*c*c <= p; c++ {
		if p%c == 0 && isSquare(p/c) {
			best = c
		}
	}
	if best > 0 {
		return best
	}
	for c := 1; c <= p; c++ {
		if p%c == 0 && isSquare(p/c) {
			return c
		}
	}
	return 1
}

func isSquare(n int) bool {
	r := isqrt(n)
	return r*r == n
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
