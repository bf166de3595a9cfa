package graph_test

// Differential referee for the flat CSR core: every map-shaped quantity
// the old implementation computed (collapsed weights in chain order,
// collapsed entries in two-level per-phase order, undirected adjacency)
// is recomputed here with the straightforward map algorithms it
// replaced, and the flat results must match bit for bit — float
// comparisons go through math.Float64bits, not epsilon.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/graph"
)

// refChainWeights is the historical map algorithm behind the CSR
// weights: one map, accumulated pair by pair in phase-then-edge order (a
// single addition chain per pair).
func refChainWeights(g *graph.TaskGraph) map[[2]int]float64 {
	w := make(map[[2]int]float64)
	for _, p := range g.Comm {
		for _, e := range p.Edges {
			if e.From == e.To {
				continue
			}
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			w[[2]int{a, b}] += e.Weight
		}
	}
	return w
}

// refPhaseWeights is the historical CollapsedEntries accumulation: each
// phase sums into its own subtotal map, and subtotals add into the pair
// total at phase boundaries. For non-integer weights the result can
// differ from refChainWeights in the last ulp, which is exactly why the
// two orders are kept distinct.
func refPhaseWeights(g *graph.TaskGraph) map[[2]int]float64 {
	total := make(map[[2]int]float64)
	for _, p := range g.Comm {
		sub := make(map[[2]int]float64)
		for _, e := range p.Edges {
			if e.From == e.To {
				continue
			}
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			sub[[2]int{a, b}] += e.Weight
		}
		for k, v := range sub {
			total[k] += v
		}
	}
	return total
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// fractionalSize draws graphs whose weights exercise float rounding:
// integer weights scaled by 1/3 would change semantics, so instead the
// stock generator is used but with enough phases that per-phase
// subtotals actually differ from the single chain when they can.
func diffSize(r *rand.Rand) gen.GraphSize {
	return gen.GraphSize{
		Tasks:     2 + r.Intn(24),
		Phases:    1 + r.Intn(4),
		Density:   0.1 + 0.6*r.Float64(),
		MaxWeight: 1 + r.Intn(7),
	}
}

// thirds copies g with every edge weight divided by 3, so pair sums
// become sensitive to addition order.
func thirds(g *graph.TaskGraph) *graph.TaskGraph {
	f := graph.New(g.Name, g.NumTasks)
	for _, p := range g.Comm {
		fp := f.AddCommPhase(p.Name)
		for _, e := range p.Edges {
			f.AddEdge(fp, e.From, e.To, e.Weight/3)
		}
	}
	return f
}

// TestCollapsedWeightsMatchesMapReferee checks both accumulation orders
// on fractional weights, where they can differ in the last ulp: the CSR
// must match the single-chain referee and CollapsedEntries the
// per-phase-subtotal referee, bit for bit. gen's integer weights sum
// exactly in any order, so the other differentials cannot tell the two
// orders apart.
func TestCollapsedWeightsMatchesMapReferee(t *testing.T) {
	gen.ForEachSeed(t, 60, func(t *testing.T, seed int64, r *rand.Rand) {
		g := thirds(gen.TaskGraph(r, diffSize(r)))
		chain, phase := refChainWeights(g), refPhaseWeights(g)
		c := g.CSR()
		if c.NumPairs() != len(chain) {
			t.Fatalf("CSR has %d pairs, referee %d", c.NumPairs(), len(chain))
		}
		for k, w := range chain {
			if got, ok := c.WeightBetween(k[0], k[1]); !ok || !sameBits(got, w) {
				t.Fatalf("pair %v: CSR weight %v (present=%v), chain referee %v", k, got, ok, w)
			}
		}
		entries := g.CollapsedEntries(1)
		if len(entries) != len(phase) {
			t.Fatalf("CollapsedEntries has %d pairs, referee %d", len(entries), len(phase))
		}
		for _, e := range entries {
			if w := phase[[2]int{e.A, e.B}]; !sameBits(e.W, w) {
				t.Fatalf("pair (%d,%d): entry weight %v, phase referee %v", e.A, e.B, e.W, w)
			}
		}
	})
}

func TestCollapsedEntriesMatchesMapRefereeAtEveryBudget(t *testing.T) {
	budgets := []int{1, 2, 4, runtime.GOMAXPROCS(0) + 3}
	gen.ForEachSeed(t, 60, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, diffSize(r))
		ref := refPhaseWeights(g)
		for _, workers := range budgets {
			entries := g.CollapsedEntries(workers)
			if len(entries) != len(ref) {
				t.Fatalf("workers=%d: %d entries, referee %d pairs", workers, len(entries), len(ref))
			}
			for i, e := range entries {
				if i > 0 && (entries[i-1].A > e.A || (entries[i-1].A == e.A && entries[i-1].B >= e.B)) {
					t.Fatalf("workers=%d: entries not strictly sorted at %d: %v then %v",
						workers, i, entries[i-1], e)
				}
				if e.A >= e.B {
					t.Fatalf("workers=%d: entry %d not normalized: %+v", workers, i, e)
				}
				w, ok := ref[[2]int{e.A, e.B}]
				if !ok {
					t.Fatalf("workers=%d: entry (%d,%d) not in referee", workers, e.A, e.B)
				}
				if !sameBits(e.W, w) {
					t.Fatalf("workers=%d: pair (%d,%d) weight %v (bits %x), referee %v (bits %x)",
						workers, e.A, e.B, e.W, math.Float64bits(e.W), w, math.Float64bits(w))
				}
			}
		}
	})
}

func TestCSRMatchesMapReferee(t *testing.T) {
	gen.ForEachSeed(t, 60, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, diffSize(r))
		ref := refChainWeights(g)
		c := g.CSR()
		if c.N != g.NumTasks {
			t.Fatalf("CSR.N=%d, graph has %d tasks", c.N, g.NumTasks)
		}
		if c.NumPairs() != len(ref) {
			t.Fatalf("CSR.NumPairs=%d, referee %d", c.NumPairs(), len(ref))
		}
		seen := 0
		for v := 0; v < g.NumTasks; v++ {
			nbrs, ws := c.Neighbors(v), c.RowWeights(v)
			if len(nbrs) != c.Degree(v) || len(ws) != len(nbrs) {
				t.Fatalf("task %d: row lengths disagree (%d nbrs, %d weights, degree %d)",
					v, len(nbrs), len(ws), c.Degree(v))
			}
			if g.Degree(v) != len(nbrs) {
				t.Fatalf("task %d: TaskGraph.Degree=%d, CSR row %d", v, g.Degree(v), len(nbrs))
			}
			for i, nb := range nbrs {
				u := int(nb)
				if i > 0 && int(nbrs[i-1]) >= u {
					t.Fatalf("task %d: row not strictly ascending: %v", v, nbrs)
				}
				if u == v {
					t.Fatalf("task %d: self loop in CSR row", v)
				}
				a, b := v, u
				if a > b {
					a, b = b, a
				}
				w, ok := ref[[2]int{a, b}]
				if !ok {
					t.Fatalf("task %d: CSR edge to %d not in referee", v, u)
				}
				if !sameBits(ws[i], w) {
					t.Fatalf("task %d->%d: CSR weight %v, referee %v", v, u, ws[i], w)
				}
				if bw, ok := c.WeightBetween(v, u); !ok || !sameBits(bw, w) {
					t.Fatalf("WeightBetween(%d,%d)=%v,%v, referee %v", v, u, bw, ok, w)
				}
				seen++
			}
			// Binary search misses must miss: probe a non-neighbor.
			for probe := 0; probe < g.NumTasks; probe++ {
				a, b := v, probe
				if a > b {
					a, b = b, a
				}
				if _, inRef := ref[[2]int{a, b}]; !inRef || probe == v {
					if _, ok := c.WeightBetween(v, probe); ok {
						t.Fatalf("WeightBetween(%d,%d) hit, referee has no pair", v, probe)
					}
				}
			}
		}
		if seen != 2*len(ref) {
			t.Fatalf("CSR has %d directed slots, referee implies %d", seen, 2*len(ref))
		}
	})
}

func TestUndirectedMatchesCSR(t *testing.T) {
	gen.ForEachSeed(t, 40, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, diffSize(r))
		c := g.CSR()
		und := g.Undirected()
		if len(und) != g.NumTasks {
			t.Fatalf("Undirected has %d rows for %d tasks", len(und), g.NumTasks)
		}
		for v := range und {
			nbrs, ws := c.Neighbors(v), c.RowWeights(v)
			if len(und[v]) != len(nbrs) {
				t.Fatalf("task %d: Undirected row %d, CSR row %d", v, len(und[v]), len(nbrs))
			}
			for i, wn := range und[v] {
				if wn.To != int(nbrs[i]) || !sameBits(wn.Weight, ws[i]) {
					t.Fatalf("task %d slot %d: Undirected %+v, CSR (%d, %v)",
						v, i, wn, nbrs[i], ws[i])
				}
			}
		}
	})
}

// TestCSRCacheInvalidation mutates a graph after its CSR is cached and
// checks the next CSR call reflects the mutation — the lazy cache must
// never serve a stale view.
func TestCSRCacheInvalidation(t *testing.T) {
	gen.ForEachSeed(t, 30, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, diffSize(r))
		g.WarmCSR()
		// Mutate: new phase plus a duplicated and a fresh edge.
		p := g.AddCommPhase("extra")
		a, b := r.Intn(g.NumTasks), r.Intn(g.NumTasks)
		g.AddEdge(p, a, b, 2.5)
		g.AddEdge(p, b, a, 1.25)
		ref := refChainWeights(g)
		c := g.CSR()
		if c.NumPairs() != len(ref) {
			t.Fatalf("after mutation: CSR has %d pairs, referee %d", c.NumPairs(), len(ref))
		}
		for k, w := range ref {
			got, ok := c.WeightBetween(k[0], k[1])
			if !ok || !sameBits(got, w) {
				t.Fatalf("after mutation: pair %v = %v,%v, referee %v", k, got, ok, w)
			}
		}
	})
}
