package mapping

import (
	"math"
	"sort"
	"testing"

	"oregami/internal/contract"
	"oregami/internal/gen"
	"oregami/internal/graph"
)

// refClusterGraph is ClusterGraph as it stood before the shared pair
// fold (graph.SortTerms + graph.FoldTerms), kept verbatim as the
// referee: a per-phase map, an order slice and a sort.Slice.
func refClusterGraph(m *Mapping) *graph.TaskGraph {
	k := m.NumClusters()
	cg := graph.New(m.Graph.Name+"/contracted", k)
	for _, p := range m.Graph.Comm {
		cp := cg.AddCommPhase(p.Name)
		agg := make(map[[2]int]float64)
		var order [][2]int
		for _, e := range p.Edges {
			a, b := m.Part[e.From], m.Part[e.To]
			if a == b {
				continue
			}
			key := [2]int{a, b}
			if _, seen := agg[key]; !seen {
				order = append(order, key)
			}
			agg[key] += e.Weight
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i][0] != order[j][0] {
				return order[i][0] < order[j][0]
			}
			return order[i][1] < order[j][1]
		})
		for _, pair := range order {
			cg.AddEdge(cp, pair[0], pair[1], agg[pair])
		}
	}
	for _, p := range m.Graph.Exec {
		ep := cg.AddExecPhase(p.Name, 0)
		ep.Cost = make([]float64, k)
		for t := 0; t < m.Graph.NumTasks; t++ {
			ep.Cost[m.Part[t]] += p.TaskCost(t)
		}
	}
	return cg
}

// TestClusterGraphMatchesReferee checks ClusterGraph against the
// map-and-sort builder on gen graphs with fractional weights, under a
// random partition into k clusters and MWM-Contract's into at most k:
// every phase keeps the same directed cluster edges in the same order
// with bit-identical weights.
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
			m := &Mapping{Graph: g, Part: tc.part}
			got, want := m.ClusterGraph(), refClusterGraph(m)
			if got.NumTasks != want.NumTasks || len(got.Comm) != len(want.Comm) {
				t.Fatalf("k=%d %s: %d clusters %d phases, referee %d and %d",
					k, tc.name, got.NumTasks, len(got.Comm), want.NumTasks, len(want.Comm))
			}
			for pi, wp := range want.Comm {
				gp := got.Comm[pi]
				if gp.Name != wp.Name || len(gp.Edges) != len(wp.Edges) {
					t.Fatalf("k=%d %s: phase %q has %d edges, referee %q %d",
						k, tc.name, gp.Name, len(gp.Edges), wp.Name, len(wp.Edges))
				}
				for i, we := range wp.Edges {
					ge := gp.Edges[i]
					if ge.From != we.From || ge.To != we.To ||
						math.Float64bits(ge.Weight) != math.Float64bits(we.Weight) {
						t.Fatalf("k=%d %s phase %q: edge %d = %+v, referee %+v", k, tc.name, wp.Name, i, ge, we)
					}
				}
			}
		}
	}
}
