package multilevel

import (
	"math"
	"testing"

	"oregami/internal/contract"
	"oregami/internal/gen"
	"oregami/internal/graph"
)

// refClusterGraph is clusterGraph as it stood before the shared pair
// fold (graph.SortTerms + graph.FoldTerms), kept verbatim as the
// referee: a dense k x k accumulator read in (a, b) order.
func refClusterGraph(g *graph.TaskGraph, part []int, k int) *graph.TaskGraph {
	c := g.CSR()
	acc := make([]float64, k*k)
	for v := 0; v < c.N; v++ {
		cv := part[v]
		for i := c.Off[v]; i < c.Off[v+1]; i++ {
			u := c.Adj[i]
			if int(u) <= v {
				continue
			}
			cu := part[u]
			if cu == cv {
				continue
			}
			a, b := cv, cu
			if a > b {
				a, b = b, a
			}
			acc[a*k+b] += c.W[i]
		}
	}
	cg := graph.New("clusters", k)
	p := cg.AddCommPhase("contracted")
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if w := acc[a*k+b]; w > 0 {
				cg.AddEdge(p, a, b, w)
			}
		}
	}
	cg.AddExecPhase("e0", 1)
	return cg
}

// TestClusterGraphMatchesReferee checks the multilevel cluster graph
// against the dense-matrix builder on gen graphs with fractional
// weights, under a random partition into k clusters and MWM-Contract's
// into at most k: the same edges in the same order with bit-identical
// weights.
func TestClusterGraphMatchesReferee(t *testing.T) {
	for _, k := range []int{1, 2, 64, 512, 513, 1024} {
		n := max(48, k+k/4)
		g := gen.Thirds(gen.TaskGraph(gen.Rand(int64(k)), gen.GraphSize{
			Tasks: n, Phases: 3, Density: min(0.15, 3/float64(n)), MaxWeight: 7,
		}))
		mwm, err := contract.MWMContract(g, contract.Options{Processors: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			part []int
		}{{"random", contract.Random(g, k, int64(k))}, {"mwm", mwm}} {
			kc := countClusters(tc.part)
			got := clusterGraph(g, tc.part, kc).Comm[0].Edges
			want := refClusterGraph(g, tc.part, kc).Comm[0].Edges
			if len(got) != len(want) {
				t.Fatalf("k=%d %s: %d edges, referee %d", k, tc.name, len(got), len(want))
			}
			for i := range want {
				if got[i].From != want[i].From || got[i].To != want[i].To ||
					math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
					t.Fatalf("k=%d %s: edge %d = %+v, referee %+v", k, tc.name, i, got[i], want[i])
				}
			}
		}
	}
}
