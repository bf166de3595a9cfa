package multilevel

import (
	"math/rand"
	"reflect"
	"testing"

	"oregami/internal/check"
	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/topology"
)

// fineGroups composes the cmaps down to li: groups[fine task] = vertex
// of levels[li] the task belongs to.
func fineGroups(levels []*level, li int) []int32 {
	g := make([]int32, levels[0].n)
	for i := range g {
		g[i] = int32(i)
	}
	for l := 1; l <= li; l++ {
		for i := range g {
			g[i] = levels[l].cmap[g[i]]
		}
	}
	return g
}

func TestCoarsenHierarchy(t *testing.T) {
	g := gen.Grid2D(30, 30)
	opt := Options{Processors: 8, CoarsenTo: 32}
	levels, err := coarsen(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 3 {
		t.Fatalf("expected a real hierarchy, got %d levels", len(levels))
	}
	if levels[0].n != 900 {
		t.Fatalf("level 0 has %d vertices", levels[0].n)
	}
	fineW := levels[0].totalW()
	for li, lv := range levels {
		if li > 0 && lv.n >= levels[li-1].n {
			t.Fatalf("level %d did not shrink: %d -> %d", li, levels[li-1].n, lv.n)
		}
		// Task conservation: vertex weights always sum to the task count.
		var vwSum int32
		for _, w := range lv.vw {
			vwSum += w
		}
		if int(vwSum) != levels[0].n {
			t.Fatalf("level %d aggregates %d tasks, want %d", li, vwSum, levels[0].n)
		}
		// Weight conservation: the level's edge weight equals the fine
		// weight crossing its groups (integral weights, so exact).
		groups := fineGroups(levels, li)
		cross := 0.0
		c := g.CSR()
		for v := 0; v < c.N; v++ {
			for i := c.Off[v]; i < c.Off[v+1]; i++ {
				if u := c.Adj[i]; int(u) > v && groups[u] != groups[v] {
					cross += c.W[i]
				}
			}
		}
		if got := lv.totalW(); got != cross {
			t.Fatalf("level %d weight %v, fine cross weight %v", li, got, cross)
		}
		if got := lv.totalW(); li > 0 && got > fineW {
			t.Fatalf("level %d weight %v exceeds fine %v", li, got, fineW)
		}
	}
	last := levels[len(levels)-1]
	if last.n > 64 {
		t.Errorf("coarsest level still has %d vertices (target 32)", last.n)
	}
}

func TestContractValidPartition(t *testing.T) {
	gen.ForEachSeed(t, 30, func(t *testing.T, seed int64, r *rand.Rand) {
		size := gen.GraphSize{Tasks: 5 + r.Intn(60), Phases: 1 + r.Intn(2), Density: 0.1 + 0.3*r.Float64(), MaxWeight: 6}
		g := gen.TaskGraph(r, size)
		p := 2 + r.Intn(7)
		part, st, err := Contract(g, Options{Processors: p, CoarsenTo: 2 * p})
		if err != nil {
			t.Fatal(err)
		}
		if len(part) != g.NumTasks {
			t.Fatalf("part length %d for %d tasks", len(part), g.NumTasks)
		}
		seen := make([]bool, st.Clusters)
		for tsk, c := range part {
			if c < 0 || c >= st.Clusters {
				t.Fatalf("task %d in cluster %d of %d", tsk, c, st.Clusters)
			}
			seen[c] = true
		}
		for c, ok := range seen {
			if !ok {
				t.Fatalf("cluster %d empty (ids must be dense)", c)
			}
		}
		if st.Clusters > p {
			t.Fatalf("%d clusters exceed %d processors", st.Clusters, p)
		}
	})
}

func TestMapOracleClean(t *testing.T) {
	gen.ForEachSeed(t, 25, func(t *testing.T, seed int64, r *rand.Rand) {
		size := gen.GraphSize{Tasks: 5 + r.Intn(80), Phases: 1 + r.Intn(3), Density: 0.1 + 0.3*r.Float64(), MaxWeight: 6}
		g := gen.TaskGraph(r, size)
		net := gen.Network(r)
		m, st, err := Map(g, net, Options{CoarsenTo: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("invalid mapping: %v", err)
		}
		if vs := check.VerifyMapping(g, net, m); len(vs) > 0 {
			t.Fatalf("oracle violations: %v", check.Render(vs))
		}
		if m.Method != "multilevel+nn-embed" {
			t.Errorf("method %q", m.Method)
		}
		if st.Clusters != m.NumClusters() {
			t.Errorf("stats clusters %d, mapping says %d", st.Clusters, m.NumClusters())
		}
	})
}

func TestMapHierTopology(t *testing.T) {
	g := gen.Grid2D(40, 40)
	net := topology.Hierarchy(2, 2, 4, 4)
	m, st, err := Map(g, net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := check.VerifyMapping(g, net, m); len(vs) > 0 {
		t.Fatalf("oracle violations: %v", check.Render(vs))
	}
	if st.Levels < 2 {
		t.Errorf("expected coarsening on 1600 tasks, got %d levels", st.Levels)
	}
	if st.Clusters > net.N {
		t.Errorf("%d clusters on %d processors", st.Clusters, net.N)
	}
}

// The determinism contract: the mapping is bit-identical at every
// Parallelism budget.
func TestDeterministicAcrossParallelism(t *testing.T) {
	g := gen.TaskGraph(gen.Rand(11), gen.GraphSize{Tasks: 120, Phases: 2, Density: 0.08, MaxWeight: 5})
	net := topology.Hierarchy(2, 2, 4)
	var basePart, basePlace []int
	for _, workers := range []int{1, 2, 4, 8} {
		m, _, err := Map(g, net, Options{Parallelism: workers, CoarsenTo: 24})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if basePart == nil {
			basePart, basePlace = m.Part, m.Place
			continue
		}
		if !reflect.DeepEqual(m.Part, basePart) {
			t.Fatalf("workers=%d: partition differs from sequential", workers)
		}
		if !reflect.DeepEqual(m.Place, basePlace) {
			t.Fatalf("workers=%d: placement differs from sequential", workers)
		}
	}
}

// Refinement must never lose to plain projection on the metric it
// optimizes: every accepted move strictly reduces the level's cut
// weight, and projection preserves cut weight exactly, so the refined
// fine partition's IPC is at most the unrefined one's.
func TestRefinementImprovesIPC(t *testing.T) {
	g := gen.Grid2D(32, 32)
	opt := Options{Processors: 8, CoarsenTo: 16}
	levels, err := coarsen(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	cpart, err := initialPartition(levels[len(levels)-1], opt)
	if err != nil {
		t.Fatal(err)
	}
	// Plain projection: compose cmaps, no refinement.
	groups := fineGroups(levels, len(levels)-1)
	cut := func(part func(v int) int32) float64 {
		c := g.CSR()
		s := 0.0
		for v := 0; v < c.N; v++ {
			for i := c.Off[v]; i < c.Off[v+1]; i++ {
				if u := c.Adj[i]; int(u) > v && part(v) != part(int(u)) {
					s += c.W[i]
				}
			}
		}
		return s
	}
	unrefined := cut(func(v int) int32 { return cpart[groups[v]] })
	part, moves, err := uncoarsen(levels, cpart, opt)
	if err != nil {
		t.Fatal(err)
	}
	refined := cut(func(v int) int32 { return int32(part[v]) })
	if refined > unrefined {
		t.Errorf("refined IPC %g worse than plain projection %g", refined, unrefined)
	}
	if moves == 0 {
		t.Error("refinement applied no moves on a 1024-task grid")
	}
}

func TestBisectMapOracleClean(t *testing.T) {
	gen.ForEachSeed(t, 25, func(t *testing.T, seed int64, r *rand.Rand) {
		size := gen.GraphSize{Tasks: 5 + r.Intn(80), Phases: 1 + r.Intn(3), Density: 0.1 + 0.3*r.Float64(), MaxWeight: 6}
		g := gen.TaskGraph(r, size)
		net := gen.Network(r)
		m, _, err := BisectMap(g, net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("invalid mapping: %v", err)
		}
		if vs := check.VerifyMapping(g, net, m); len(vs) > 0 {
			t.Fatalf("oracle violations: %v", check.Render(vs))
		}
		if m.Method != "recursive-bisection" {
			t.Errorf("method %q", m.Method)
		}
	})
}

func TestBisectDegradedNetwork(t *testing.T) {
	net, err := topology.Hierarchy(2, 2, 2).Masked([]int{0, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Grid2D(10, 10)
	m, _, err := BisectMap(g, net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Place {
		if !net.Alive(p) {
			t.Fatalf("cluster placed on dead processor %d", p)
		}
	}
	if vs := check.VerifyMapping(g, net, m); len(vs) > 0 {
		t.Fatalf("oracle violations: %v", check.Render(vs))
	}
}

func TestMultilevelDegradedNetwork(t *testing.T) {
	net, err := topology.Hierarchy(2, 2, 2).Masked([]int{1, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Grid2D(12, 12)
	m, _, err := Map(g, net, Options{CoarsenTo: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Place {
		if !net.Alive(p) {
			t.Fatalf("cluster placed on dead processor %d", p)
		}
	}
	if vs := check.VerifyMapping(g, net, m); len(vs) > 0 {
		t.Fatalf("oracle violations: %v", check.Render(vs))
	}
}

func TestOptionErrors(t *testing.T) {
	g := graph.New("g", 4)
	if _, _, err := Contract(g, Options{}); err == nil {
		t.Error("Contract without processors accepted")
	}
	if _, _, err := Contract(graph.New("empty", 0), Options{Processors: 2}); err == nil {
		t.Error("empty graph accepted")
	}
	net := topology.Hypercube(2)
	if _, _, err := Map(g, net, Options{Processors: 99}); err == nil {
		t.Error("oversized processor request accepted")
	}
}
