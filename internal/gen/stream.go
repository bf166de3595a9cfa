package gen

import (
	"fmt"
	"math/rand"

	"oregami/internal/graph"
)

// Streaming generators for the multilevel scale suite: unlike the
// seeded random corpus above, these build 1e5..1e6-task graphs with a
// handful of allocations — edge slices are sized exactly up front and
// graph.New carves the labels from one backing string — so the scale
// benchmarks measure the coarsener, not the generator.

// Grid2D builds the r x c 5-point-stencil task graph: one comm phase
// where each task exchanges with its grid neighbors, edge weights the
// integer 1 + (from+to)%3 so heavy-edge matching has signal, and one
// uniform execution phase. The task at grid position (i, j) has index
// i*c + j.
func Grid2D(r, c int) *graph.TaskGraph {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("gen: Grid2D needs positive dims, got %dx%d", r, c))
	}
	g := graph.New(fmt.Sprintf("grid-%dx%d", r, c), r*c)
	p := g.AddCommPhase("stencil")
	p.Edges = make([]graph.Edge, 0, r*(c-1)+(r-1)*c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				p.Edges = append(p.Edges, graph.Edge{From: v, To: v + 1, Weight: float64(1 + (2*v+1)%3)})
			}
			if i+1 < r {
				p.Edges = append(p.Edges, graph.Edge{From: v, To: v + c, Weight: float64(1 + (2*v+c)%3)})
			}
		}
	}
	g.AddExecPhase("e0", 1)
	return g
}

// SmallWorld builds a ring of n tasks with `chords` extra random
// shortcuts per task (Watts-Strogatz flavored): the irregular,
// low-diameter counterpart to Grid2D in the scale suite. Weights are
// integers in 1..3. Deterministic in (seed, n, chords).
func SmallWorld(seed int64, n, chords int) *graph.TaskGraph {
	if n < 3 {
		panic(fmt.Sprintf("gen: SmallWorld needs n >= 3, got %d", n))
	}
	if chords < 0 {
		panic(fmt.Sprintf("gen: SmallWorld needs chords >= 0, got %d", chords))
	}
	r := rand.New(rand.NewSource(seed))
	g := graph.New(fmt.Sprintf("smallworld-%d", n), n)
	p := g.AddCommPhase("ring")
	p.Edges = make([]graph.Edge, 0, n*(1+chords))
	for v := 0; v < n; v++ {
		p.Edges = append(p.Edges, graph.Edge{From: v, To: (v + 1) % n, Weight: float64(1 + v%3)})
		for k := 0; k < chords; k++ {
			u := r.Intn(n)
			if u == v {
				u = (v + n/2) % n
			}
			p.Edges = append(p.Edges, graph.Edge{From: v, To: u, Weight: float64(1 + r.Intn(3))})
		}
	}
	g.AddExecPhase("e0", 1)
	return g
}
