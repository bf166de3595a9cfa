package contract

import (
	"math"
	"sort"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/matching"
)

// refInterclusterEdges is interclusterEdges as it stood before the
// shared pair fold (graph.SortTerms + graph.FoldTerms), kept verbatim
// with both of its paths as the referee: a dense half-matrix for
// k <= 512, a comparison sort above.
func refInterclusterEdges(entries []graph.CollapsedEntry, u *unionFind, index, size []int, k, b int) []matching.WEdge {
	if k <= 512 {
		// Dense k x k half-matrix; after greedyMerge k is at most 2P.
		agg := make([]float64, k*k)
		hit := make([]bool, k*k)
		for _, e := range entries {
			a, bb := index[u.find(e.A)], index[u.find(e.B)]
			if a == bb {
				continue
			}
			if a > bb {
				a, bb = bb, a
			}
			agg[a*k+bb] += e.W
			hit[a*k+bb] = true
		}
		edges := make([]matching.WEdge, 0, k*(k-1)/2)
		for a := 0; a < k; a++ {
			for bb := a + 1; bb < k; bb++ {
				if hit[a*k+bb] && size[a]+size[bb] <= b {
					edges = append(edges, matching.WEdge{I: a, J: bb, Weight: agg[a*k+bb]})
				}
			}
		}
		return edges
	}
	// Large k (SkipGreedy ablation on a big graph): sort (a, b, entry)
	// triples and fold runs — per-pair additions still happen in entries
	// order, so the weights match the dense path bit for bit.
	type aggTriple struct {
		a, b, i int32
		w       float64
	}
	ts := make([]aggTriple, 0, len(entries))
	for i, e := range entries {
		a, bb := index[u.find(e.A)], index[u.find(e.B)]
		if a == bb {
			continue
		}
		if a > bb {
			a, bb = bb, a
		}
		ts = append(ts, aggTriple{a: int32(a), b: int32(bb), i: int32(i), w: e.W})
	}
	sort.Slice(ts, func(x, y int) bool {
		if ts[x].a != ts[y].a {
			return ts[x].a < ts[y].a
		}
		if ts[x].b != ts[y].b {
			return ts[x].b < ts[y].b
		}
		return ts[x].i < ts[y].i
	})
	var edges []matching.WEdge
	for i := 0; i < len(ts); {
		a, bb := ts[i].a, ts[i].b
		w := 0.0
		for i < len(ts) && ts[i].a == a && ts[i].b == bb {
			w += ts[i].w
			i++
		}
		if size[a]+size[bb] <= b {
			edges = append(edges, matching.WEdge{I: int(a), J: int(bb), Weight: w})
		}
	}
	return edges
}

// TestInterclusterEdgesMatchesReferee checks the matching stage's
// cluster graph against the pre-fold builder on either side of its old
// k = 512 fork, on gen graphs with fractional weights under a random
// partition into k clusters and MWM-Contract's into at most k: the same
// pairs in the same order with bit-identical weights, under a tight and
// a loose size bound.
func TestInterclusterEdgesMatchesReferee(t *testing.T) {
	for _, k := range []int{1, 2, 64, 512, 513, 1024} {
		n := max(48, k+k/4)
		g := gen.Thirds(gen.TaskGraph(gen.Rand(int64(k)), gen.GraphSize{
			Tasks: n, Phases: 3, Density: min(0.15, 3/float64(n)), MaxWeight: 7,
		}))
		mwm, err := MWMContract(g, Options{Processors: k})
		if err != nil {
			t.Fatal(err)
		}
		entries := g.CollapsedEntries()
		for _, tc := range []struct {
			name string
			part []int
		}{{"random", Random(g, k, int64(k))}, {"mwm", mwm}} {
			u := unionFindFromPartition(tc.part)
			ids, size := u.clusters()
			index := make([]int, g.NumTasks)
			for i, id := range ids {
				index[id] = i
			}
			tight, err := Options{Processors: len(ids)}.bound(g.NumTasks)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []int{tight, g.NumTasks} {
				got := interclusterEdges(entries, u, index, size, len(ids), b)
				want := refInterclusterEdges(entries, u, index, size, len(ids), b)
				if len(got) != len(want) {
					t.Fatalf("k=%d %s B=%d: %d edges, referee %d", k, tc.name, b, len(got), len(want))
				}
				for i := range want {
					if got[i].I != want[i].I || got[i].J != want[i].J ||
						math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
						t.Fatalf("k=%d %s B=%d: edge %d = %+v, referee %+v", k, tc.name, b, i, got[i], want[i])
					}
				}
			}
		}
	}
}
