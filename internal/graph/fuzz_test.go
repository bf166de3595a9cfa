package graph_test

// FuzzCSRRoundTrip drives the generator with fuzzer-chosen shape
// parameters, builds the flat CSR and the collapsed entries, and
// referees every query against the map algorithms they replaced; then
// it folds the edges onto a partition drawn from the seed and referees
// SortTerms and FoldTerms the same way. Registered in `make fuzz`.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/graph"
)

func FuzzCSRRoundTrip(f *testing.F) {
	// Seed corpus: the shapes the differential tests sweep, plus
	// degenerate single-task and edge-free graphs. mix bit 0 divides the
	// weights by 3; mix>>1 extra self-loops and cross-phase duplicates.
	f.Add(int64(1), uint8(8), uint8(2), uint8(40), uint8(4), uint8(0))
	f.Add(int64(7), uint8(160), uint8(8), uint8(15), uint8(8), uint8(33))
	f.Add(int64(3), uint8(1), uint8(1), uint8(0), uint8(1), uint8(7))
	f.Add(int64(42), uint8(31), uint8(5), uint8(90), uint8(3), uint8(0))
	f.Add(int64(5), uint8(12), uint8(4), uint8(30), uint8(9), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, tasks, phases, density, maxW, mix uint8) {
		size := gen.GraphSize{
			Tasks:     1 + int(tasks)%64,
			Phases:    1 + int(phases)%6,
			Density:   float64(density%101) / 100,
			MaxWeight: 1 + int(maxW)%9,
		}
		r := gen.Rand(seed)
		g := gen.TaskGraph(r, size)
		if mix&1 == 1 {
			// Integer weights sum exactly in any order; thirds do not,
			// so only these inputs can see an addition-order bug.
			g = gen.Thirds(g)
		}
		tangle(g, r, int(mix>>1))
		checkEntries(t, g.CollapsedEntries(), refPhaseWeights(g))
		ref := refChainWeights(g)
		c := g.CSR()
		if c.N != g.NumTasks || c.NumPairs() != len(ref) {
			t.Fatalf("CSR shape (N=%d pairs=%d) disagrees with referee (N=%d pairs=%d)",
				c.N, c.NumPairs(), g.NumTasks, len(ref))
		}
		if len(c.Off) != c.N+1 || c.Off[0] != 0 || int(c.Off[c.N]) != len(c.Adj) || len(c.W) != len(c.Adj) {
			t.Fatalf("CSR arrays inconsistent: |Off|=%d N=%d Off[N]=%d |Adj|=%d |W|=%d",
				len(c.Off), c.N, c.Off[c.N], len(c.Adj), len(c.W))
		}
		directed := 0
		for v := 0; v < c.N; v++ {
			nbrs, ws := c.Neighbors(v), c.RowWeights(v)
			for i, nb := range nbrs {
				u := int(nb)
				if u < 0 || u >= c.N || u == v {
					t.Fatalf("task %d: neighbor %d out of range", v, u)
				}
				if i > 0 && int(nbrs[i-1]) >= u {
					t.Fatalf("task %d: row not strictly ascending", v)
				}
				a, b := v, u
				if a > b {
					a, b = b, a
				}
				w, ok := ref[[2]int{a, b}]
				if !ok || math.Float64bits(w) != math.Float64bits(ws[i]) {
					t.Fatalf("task %d->%d: CSR weight %v, referee %v (present=%v)", v, u, ws[i], w, ok)
				}
				// Round trip through the binary-search view.
				bw, ok := c.WeightBetween(v, u)
				if !ok || math.Float64bits(bw) != math.Float64bits(w) {
					t.Fatalf("WeightBetween(%d,%d)=%v,%v, want %v", v, u, bw, ok, w)
				}
				directed++
			}
		}
		if directed != 2*len(ref) {
			t.Fatalf("CSR holds %d directed slots, referee implies %d", directed, 2*len(ref))
		}
		checkFold(t, g, r)
	})
}

// checkFold folds every edge onto the directed cluster pair of a random
// partition, as a cluster graph build does, and referees the pair fold
// against a map-and-sort build: SortTerms must give the stable (A, B)
// order and FoldTerms the map's pairs, ascending, with bit-identical
// sums.
func checkFold(t *testing.T, g *graph.TaskGraph, r *rand.Rand) {
	k := 1 + r.Intn(g.NumTasks)
	part := make([]int32, g.NumTasks)
	for v := range part {
		part[v] = int32(r.Intn(k))
	}
	var ts []graph.Term
	ref := make(map[[2]int32]float64)
	for pi, p := range g.Comm {
		for _, e := range p.Edges {
			a, b := part[e.From], part[e.To]
			ts = append(ts, graph.Term{A: a, B: b, Phase: int32(pi), W: e.Weight})
			ref[[2]int32{a, b}] += e.Weight
		}
	}
	stable := append([]graph.Term(nil), ts...)
	sort.SliceStable(stable, func(i, j int) bool {
		if stable[i].A != stable[j].A {
			return stable[i].A < stable[j].A
		}
		return stable[i].B < stable[j].B
	})
	graph.SortTerms(ts, k)
	if !reflect.DeepEqual(ts, stable) {
		t.Fatalf("SortTerms(k=%d) is not the stable (A, B) order", k)
	}
	keys := make([][2]int32, 0, len(ref))
	for key := range ref {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	pairs := graph.FoldTerms(ts)
	if len(pairs) != len(keys) {
		t.Fatalf("FoldTerms(k=%d) gives %d pairs, referee %d", k, len(pairs), len(keys))
	}
	for i, key := range keys {
		if p := pairs[i]; p.A != key[0] || p.B != key[1] || !sameBits(p.W, ref[key]) {
			t.Fatalf("FoldTerms(k=%d) pair %d = (%d,%d) %v, referee (%d,%d) %v",
				k, i, p.A, p.B, p.W, key[0], key[1], ref[key])
		}
	}
}

// tangle adds k edges gen never makes: self-loops, which the collapse
// must drop, and copies of existing edges (either direction) into a
// random phase, so one pair collects contributions from several phases
// in an interleaved order.
func tangle(g *graph.TaskGraph, r *rand.Rand, k int) {
	for i := 0; i < k; i++ {
		dst := g.Comm[r.Intn(len(g.Comm))]
		src := g.Comm[r.Intn(len(g.Comm))]
		if len(src.Edges) == 0 || r.Intn(4) == 0 {
			v := r.Intn(g.NumTasks)
			g.AddEdge(dst, v, v, 1+float64(r.Intn(5))/3)
			continue
		}
		e := src.Edges[r.Intn(len(src.Edges))]
		if r.Intn(2) == 0 {
			e.From, e.To = e.To, e.From
		}
		g.AddEdge(dst, e.From, e.To, e.Weight)
	}
}
