package embed

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/topology"
)

func ringCluster(n int) *graph.TaskGraph {
	g := graph.New("ring", n)
	p := g.AddCommPhase("c")
	for i := 0; i < n; i++ {
		g.AddEdge(p, i, (i+1)%n, 1)
	}
	return g
}

func checkInjective(t *testing.T, place []int, n int) {
	t.Helper()
	seen := make(map[int]bool)
	for c, p := range place {
		if p < 0 || p >= n {
			t.Fatalf("cluster %d on processor %d out of range", c, p)
		}
		if seen[p] {
			t.Fatalf("processor %d double-booked", p)
		}
		seen[p] = true
	}
}

func TestNNEmbedRingOnRing(t *testing.T) {
	cg := ringCluster(8)
	net := topology.Ring(8)
	place, err := NNEmbed(cg, net)
	if err != nil {
		t.Fatal(err)
	}
	checkInjective(t, place, net.N)
	total, _ := WeightedDilation(cg, net, place)
	// Identity achieves 8 (every edge dilation 1); greedy should be
	// close. Bound it by 2x optimal.
	if total > 16 {
		t.Errorf("NN-Embed ring-on-ring weighted dilation = %g", total)
	}
}

func TestNNEmbedHeaviestPairAdjacent(t *testing.T) {
	g := graph.New("g", 4)
	p := g.AddCommPhase("c")
	g.AddEdge(p, 2, 3, 100)
	g.AddEdge(p, 0, 1, 1)
	net := topology.Mesh(2, 4)
	place, err := NNEmbed(g, net)
	if err != nil {
		t.Fatal(err)
	}
	checkInjective(t, place, net.N)
	if net.Distance(place[2], place[3]) != 1 {
		t.Errorf("heaviest pair not adjacent: %v", place)
	}
}

func TestNNEmbedBeatsRandomOnAverage(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var nnTotal, randTotal float64
	for trial := 0; trial < 20; trial++ {
		k := 6 + r.Intn(6)
		g := graph.New("g", k)
		p := g.AddCommPhase("c")
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if r.Intn(2) == 0 {
					g.AddEdge(p, a, b, float64(1+r.Intn(10)))
				}
			}
		}
		net := topology.Mesh(4, 4)
		nn, err := NNEmbed(g, net)
		if err != nil {
			t.Fatal(err)
		}
		checkInjective(t, nn, net.N)
		rd, err := Random(k, net, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		a, _ := WeightedDilation(g, net, nn)
		b, _ := WeightedDilation(g, net, rd)
		nnTotal += a
		randTotal += b
	}
	if nnTotal >= randTotal {
		t.Errorf("NN-Embed (%g) not better than random (%g) on average", nnTotal, randTotal)
	}
}

func TestNNEmbedDisconnectedClusters(t *testing.T) {
	// Clusters with no communication still get placed.
	g := graph.New("iso", 5)
	g.AddCommPhase("c")
	net := topology.Linear(6)
	place, err := NNEmbed(g, net)
	if err != nil {
		t.Fatal(err)
	}
	checkInjective(t, place, net.N)
	if len(place) != 5 {
		t.Errorf("placed %d clusters", len(place))
	}
}

func TestEmbedErrors(t *testing.T) {
	if _, err := NNEmbed(ringCluster(9), topology.Ring(8)); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := NNEmbed(graph.New("e", 0), topology.Ring(3)); err == nil {
		t.Error("empty cluster graph accepted")
	}
	if _, err := Identity(9, topology.Ring(8)); err == nil {
		t.Error("identity oversubscription accepted")
	}
	if _, err := Random(9, topology.Ring(8), 1); err == nil {
		t.Error("random oversubscription accepted")
	}
}

func TestIdentityAndRandom(t *testing.T) {
	net := topology.Hypercube(3)
	id, _ := Identity(5, net)
	for i, p := range id {
		if p != i {
			t.Errorf("identity[%d] = %d", i, p)
		}
	}
	rd, _ := Random(5, net, 7)
	checkInjective(t, rd, net.N)
	rd2, _ := Random(5, net, 7)
	for i := range rd {
		if rd[i] != rd2[i] {
			t.Error("random embedding not deterministic for equal seed")
		}
	}
}

func TestWeightedDilationIdentityRing(t *testing.T) {
	cg := ringCluster(6)
	net := topology.Ring(6)
	place, _ := Identity(6, net)
	total, max := WeightedDilation(cg, net, place)
	if total != 6 || max != 1 {
		t.Errorf("identity ring dilation = %g/%d, want 6/1", total, max)
	}
}

func TestSwapRefineNeverWorse(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		k := 6 + r.Intn(8)
		g := graph.New("g", k)
		p := g.AddCommPhase("c")
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if r.Intn(2) == 0 {
					g.AddEdge(p, a, b, float64(1+r.Intn(10)))
				}
			}
		}
		net := topology.Mesh(4, 4)
		place, err := Random(k, net, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		before, _ := WeightedDilation(g, net, place)
		refined, moves := SwapRefine(g, net, place, 10)
		after, _ := WeightedDilation(g, net, refined)
		if after > before {
			t.Fatalf("trial %d: refinement worsened %g -> %g", trial, before, after)
		}
		if moves > 0 && after >= before {
			t.Fatalf("trial %d: %d moves with no improvement", trial, moves)
		}
		checkInjective(t, refined, net.N)
	}
}

func TestSwapRefineBeatsNNEmbedSometimes(t *testing.T) {
	// Refinement applied after NN-Embed should help on at least some
	// instances and never hurt.
	r := rand.New(rand.NewSource(43))
	helped := 0
	for trial := 0; trial < 20; trial++ {
		k := 8 + r.Intn(8)
		g := graph.New("g", k)
		p := g.AddCommPhase("c")
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if r.Intn(3) == 0 {
					g.AddEdge(p, a, b, float64(1+r.Intn(10)))
				}
			}
		}
		net := topology.Hypercube(4)
		place, err := NNEmbed(g, net)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := WeightedDilation(g, net, place)
		refined, _ := SwapRefine(g, net, place, 10)
		after, _ := WeightedDilation(g, net, refined)
		if after > before {
			t.Fatalf("trial %d: refinement hurt NN-Embed %g -> %g", trial, before, after)
		}
		if after < before {
			helped++
		}
	}
	if helped == 0 {
		t.Error("swap refinement never improved NN-Embed across 20 trials")
	}
}

func TestSwapRefineUsesFreeProcessors(t *testing.T) {
	// Two heavy communicators placed far apart with free processors
	// between them: refinement must pull them together.
	g := graph.New("pair", 2)
	p := g.AddCommPhase("c")
	g.AddEdge(p, 0, 1, 10)
	net := topology.Linear(8)
	place := []int{0, 7}
	refined, moves := SwapRefine(g, net, place, 10)
	if moves == 0 {
		t.Fatal("no moves made")
	}
	if d := net.Distance(refined[0], refined[1]); d != 1 {
		t.Errorf("pair still %d apart", d)
	}
}

// refNNEmbed is the dense NN-Embed the CSR-row scans replaced, kept as
// the referee: a k x k weight matrix, and both per-step scans over all
// k clusters.
func refNNEmbed(cg *graph.TaskGraph, net *topology.Network) ([]int, error) {
	k := cg.NumTasks
	live := net.NumLive()
	if k > live {
		return nil, fmt.Errorf("embed: %d clusters exceed %d live processors", k, live)
	}
	if k == 0 {
		return nil, fmt.Errorf("embed: empty cluster graph")
	}
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
	}
	type cedge struct {
		a, b int
		w    float64
	}
	// Walk the flat collapsed graph's upper triangle; the CSR carries the
	// per-pair weights in the historical chain order.
	csr := cg.CSR()
	edges := make([]cedge, 0, csr.NumPairs())
	for a := 0; a < k; a++ {
		nbrs := csr.Neighbors(a)
		ws := csr.RowWeights(a)
		for i, b := range nbrs {
			if int(b) < a {
				continue
			}
			w[a][b] = ws[i]
			w[b][a] = ws[i]
			edges = append(edges, cedge{a, int(b), ws[i]})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})

	place := make([]int, k)
	for i := range place {
		place[i] = -1
	}
	freeProc := make([]bool, net.N)
	for i := range freeProc {
		freeProc[i] = net.Alive(i)
	}
	placed := 0
	occupy := func(cluster, proc int) {
		place[cluster] = proc
		freeProc[proc] = false
		placed++
	}

	// Seed: the heaviest edge goes on the highest-degree live processor
	// and one of its neighbors (adjacent when the degree is positive;
	// an isolated live processor can only host a singleton).
	seedProc := -1
	for p := 0; p < net.N; p++ {
		if freeProc[p] && (seedProc == -1 || net.Degree(p) > net.Degree(seedProc)) {
			seedProc = p
		}
	}
	if len(edges) > 0 && k > 1 {
		occupy(edges[0].a, seedProc)
		second := -1
		for _, u := range net.Neighbors(seedProc) {
			if freeProc[u] {
				second = u
				break
			}
		}
		if second == -1 {
			for p := 0; p < net.N; p++ {
				if freeProc[p] {
					second = p
					break
				}
			}
		}
		occupy(edges[0].b, second)
	} else {
		occupy(0, seedProc)
	}

	for placed < k {
		// Unplaced cluster with max traffic to placed clusters; fall
		// back to the lowest-id unplaced cluster for isolated nodes.
		best, bestW := -1, -1.0
		for c := 0; c < k; c++ {
			if place[c] != -1 {
				continue
			}
			t := 0.0
			for d := 0; d < k; d++ {
				if place[d] != -1 {
					t += w[c][d]
				}
			}
			if t > bestW {
				best, bestW = c, t
			}
		}
		// Free processor minimizing weighted distance to partners.
		bestProc, bestCost := -1, 0.0
		for p := 0; p < net.N; p++ {
			if !freeProc[p] {
				continue
			}
			cost := 0.0
			for d := 0; d < k; d++ {
				if place[d] != -1 && w[best][d] > 0 {
					hops := net.Distance(p, place[d])
					if hops < 0 {
						// Disconnected on a degraded network: worse than
						// any reachable placement.
						hops = net.N
					}
					cost += w[best][d] * float64(hops)
				}
			}
			if bestProc == -1 || cost < bestCost {
				bestProc, bestCost = p, cost
			}
		}
		occupy(best, bestProc)
	}
	return place, nil
}

// fractional returns g with every edge weight divided by 3, so the
// per-cluster sums are inexact and depend on their addition order.
func fractional(g *graph.TaskGraph) *graph.TaskGraph {
	f := g.Clone()
	for _, p := range f.Comm {
		for i := range p.Edges {
			p.Edges[i].Weight /= 3
		}
	}
	return f
}

// isolating returns g without the edges touching tasks that are
// multiples of 4, which leaves those clusters isolated and exercises the
// lowest-id fallback pick.
func isolating(g *graph.TaskGraph) *graph.TaskGraph {
	f := g.Clone()
	for _, p := range f.Comm {
		kept := p.Edges[:0]
		for _, e := range p.Edges {
			if e.From%4 != 0 && e.To%4 != 0 {
				kept = append(kept, e)
			}
		}
		p.Edges = kept
	}
	return f
}

// TestNNEmbedMatchesDenseReferee pins the sparse NN-Embed to the dense
// referee, placement for placement, over seeded cluster graphs with
// integer and fractional weights, on hypercube, mesh and hier machines,
// pristine and degraded.
func TestNNEmbedMatchesDenseReferee(t *testing.T) {
	nets := []*topology.Network{
		topology.Hypercube(5),
		topology.Mesh(6, 6),
		topology.Hierarchy(2, 3, 4),
		topology.Hierarchy(4, 4, 4, 8),
	}
	for seed := int64(1); seed <= 8; seed++ {
		r := gen.Rand(seed)
		for _, base := range nets {
			net := base
			if seed%2 == 0 {
				net, _, _ = gen.Faults(r, base, 3, 3)
			}
			k := 2 + r.Intn(min(net.NumLive(), 160)-1)
			g := gen.TaskGraph(r, gen.GraphSize{Tasks: k, Phases: 2, Density: 0.02 + 0.2*r.Float64(), MaxWeight: 9})
			for _, tc := range []struct {
				name string
				cg   *graph.TaskGraph
			}{
				{"integer", g},
				{"fractional", fractional(g)},
				{"isolated", isolating(fractional(g))},
			} {
				name, cg := tc.name, tc.cg
				want, werr := refNNEmbed(cg, net)
				got, gerr := NNEmbed(cg, net)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("seed %d %s %s k=%d: error %v, referee %v", seed, net.Name, name, k, gerr, werr)
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("seed %d %s %s k=%d: cluster %d on %d, referee places it on %d", seed, net.Name, name, k, c, got[c], want[c])
					}
				}
			}
		}
	}
}
