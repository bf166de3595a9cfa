package gen

import (
	"fmt"
	"math/rand"

	"oregami/internal/graph"
	"oregami/internal/topology"
)

// GraphSize bounds a random task graph. Shrinking a failing seed means
// re-running it with smaller fields; the generator consumes randomness
// in the same order regardless of the bounds, so smaller bounds yield a
// structurally similar, smaller graph.
type GraphSize struct {
	// Tasks is the exact task count (>= 1).
	Tasks int
	// Phases is the number of communication phases (>= 1).
	Phases int
	// Density is the probability of each candidate edge beyond the
	// connecting backbone, in [0, 1].
	Density float64
	// MaxWeight bounds edge weights; weights are integers in
	// 1..MaxWeight so differential tests can compare sums exactly.
	MaxWeight int
}

// DefaultSize draws a small GraphSize suitable for brute-force
// differential tests.
func DefaultSize(r *rand.Rand) GraphSize {
	return GraphSize{
		Tasks:     2 + r.Intn(9), // 2..10: brute-forceable
		Phases:    1 + r.Intn(3),
		Density:   0.15 + 0.5*r.Float64(),
		MaxWeight: 1 + r.Intn(5),
	}
}

// TaskGraph generates an arbitrary multi-phase task graph: a random
// spanning backbone in phase 0 keeps it connected, then each ordered
// task pair joins each phase with probability Density. Weights are
// integers >= 1; every graph has one uniform and possibly one per-task
// execution phase.
func TaskGraph(r *rand.Rand, s GraphSize) *graph.TaskGraph {
	if s.Tasks < 1 {
		s.Tasks = 1
	}
	if s.Phases < 1 {
		s.Phases = 1
	}
	if s.MaxWeight < 1 {
		s.MaxWeight = 1
	}
	g := graph.New(fmt.Sprintf("random-%d", s.Tasks), s.Tasks)
	w := func() float64 { return float64(1 + r.Intn(s.MaxWeight)) }
	for pi := 0; pi < s.Phases; pi++ {
		p := g.AddCommPhase(fmt.Sprintf("c%d", pi))
		if pi == 0 {
			// Random spanning backbone: attach each task to an earlier one.
			for t := 1; t < s.Tasks; t++ {
				g.AddEdge(p, r.Intn(t), t, w())
			}
		}
		for a := 0; a < s.Tasks; a++ {
			for b := 0; b < s.Tasks; b++ {
				if a != b && r.Float64() < s.Density {
					g.AddEdge(p, a, b, w())
				}
			}
		}
	}
	g.AddExecPhase("e0", float64(1+r.Intn(4)))
	if r.Intn(2) == 0 {
		ep := g.AddExecPhase("e1", 0)
		ep.Cost = make([]float64, s.Tasks)
		for t := range ep.Cost {
			ep.Cost[t] = float64(1 + r.Intn(4))
		}
	}
	return g
}

// Thirds returns a copy of g with every edge weight divided by 3. The
// integer weights TaskGraph draws sum exactly in any order; thirds do
// not, so differential tests on them can see an addition-order change.
func Thirds(g *graph.TaskGraph) *graph.TaskGraph {
	f := g.Clone()
	for _, p := range f.Comm {
		for i := range p.Edges {
			p.Edges[i].Weight /= 3
		}
	}
	return f
}

// Cayley generates a node-symmetric task graph: the Cayley graph of the
// cyclic group Z_n with 1..3 random generators, one communication phase
// per generator (task i sends to i+g mod n). Every phase is a bijection,
// so graph.IsNodeSymmetricCandidate holds and the group-theoretic
// contraction applies whenever the cluster count divides n.
func Cayley(r *rand.Rand, maxOrder int) *graph.TaskGraph {
	if maxOrder < 4 {
		maxOrder = 4
	}
	n := 4 + r.Intn(maxOrder-3)
	g := graph.New(fmt.Sprintf("cayley-z%d", n), n)
	gens := 1 + r.Intn(3)
	used := map[int]bool{}
	for k := 0; k < gens; k++ {
		step := 1 + r.Intn(n-1)
		if k == gens-1 && gcdAll(n, used) != 1 {
			// The steps must generate all of Z_n (the group must act
			// regularly on the n tasks), so force the last generator
			// coprime to n if the earlier ones don't reach it alone.
			for gcd(step, n) != 1 || used[step] {
				step = 1 + r.Intn(n-1)
			}
		}
		if used[step] {
			continue
		}
		used[step] = true
		weight := float64(1 + r.Intn(3)) // uniform per phase: preserves symmetry
		p := g.AddCommPhase(fmt.Sprintf("g%d", step))
		for i := 0; i < n; i++ {
			g.AddEdge(p, i, (i+step)%n, weight)
		}
	}
	g.AddExecPhase("work", float64(1+r.Intn(3)))
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// gcdAll is the gcd of n and every used generator step (n when none).
func gcdAll(n int, used map[int]bool) int {
	g := n
	for step := range used {
		g = gcd(g, step)
	}
	return g
}

// FromNetwork converts a network's link structure into a single-phase
// task graph (one directed edge per link, weight 1), the canonical form
// of the nameable families that canned.Detect recognizes.
func FromNetwork(net *topology.Network) *graph.TaskGraph {
	g := graph.New(net.Name, net.N)
	p := g.AddCommPhase("adj")
	for _, l := range net.Links() {
		g.AddEdge(p, l.A, l.B, 1)
	}
	g.AddExecPhase("work", 1)
	return g
}

// Nameable generates a task graph of a random nameable family (ring,
// linear, mesh, torus, hypercube, complete binary tree, binomial tree)
// at random small parameters.
func Nameable(r *rand.Rand) *graph.TaskGraph {
	switch r.Intn(7) {
	case 0:
		return FromNetwork(topology.Ring(3 + r.Intn(10)))
	case 1:
		return FromNetwork(topology.Linear(2 + r.Intn(11)))
	case 2:
		return FromNetwork(topology.Mesh(2+r.Intn(3), 2+r.Intn(3)))
	case 3:
		// canned.Detect only recognizes chord-free tori with both
		// dimensions >= 5.
		return FromNetwork(topology.Torus(5+r.Intn(2), 5+r.Intn(2)))
	case 4:
		return FromNetwork(topology.Hypercube(1 + r.Intn(4)))
	case 5:
		return FromNetwork(topology.CompleteBinaryTree(1 + r.Intn(3)))
	default:
		return FromNetwork(topology.BinomialTree(1 + r.Intn(4)))
	}
}
