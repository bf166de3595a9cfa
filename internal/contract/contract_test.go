package contract

import (
	"context"
	"math/rand"
	"testing"

	"oregami/internal/graph"
	"oregami/internal/mapping"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// fig5Graph is the paper's Fig 5 reconstruction, shared with the
// experiment harness.
func fig5Graph() *graph.TaskGraph { return workload.Fig5Graph() }

func partValid(t *testing.T, g *graph.TaskGraph, part []int, maxClusters, b int) {
	t.Helper()
	sizes := make(map[int]int)
	for task, c := range part {
		if c < 0 {
			t.Fatalf("task %d unassigned", task)
		}
		sizes[c]++
	}
	if len(sizes) > maxClusters {
		t.Fatalf("%d clusters exceed %d processors", len(sizes), maxClusters)
	}
	for c, s := range sizes {
		if b > 0 && s > b {
			t.Fatalf("cluster %d has %d tasks, exceeds B=%d", c, s, b)
		}
	}
}

func TestFig5MWMContract(t *testing.T) {
	g := fig5Graph()
	part, err := MWMContract(g, Options{Processors: 3, MaxTasksPerProc: 4})
	if err != nil {
		t.Fatal(err)
	}
	partValid(t, g, part, 3, 4)
	if got := g.EdgeCut(part); got != 6 {
		t.Errorf("total IPC = %g, want 6 (paper's optimal)", got)
	}
	// Communities must be intact.
	for _, comm := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}} {
		c := part[comm[0]]
		for _, task := range comm[1:] {
			if part[task] != c {
				t.Errorf("community %v split: part=%v", comm, part)
			}
		}
	}
}

func TestMWMContractFewTasks(t *testing.T) {
	// V <= 2P: optimal matching directly on tasks.
	g := graph.New("small", 4)
	p := g.AddCommPhase("c")
	g.AddEdge(p, 0, 1, 10)
	g.AddEdge(p, 2, 3, 10)
	g.AddEdge(p, 1, 2, 1)
	part, err := MWMContract(g, Options{Processors: 2, MaxTasksPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	partValid(t, g, part, 2, 2)
	if cut := g.EdgeCut(part); cut != 1 {
		t.Errorf("cut = %g, want 1", cut)
	}
}

func TestMWMContractInfeasible(t *testing.T) {
	g := graph.New("g", 10)
	g.AddCommPhase("c")
	if _, err := MWMContract(g, Options{Processors: 2, MaxTasksPerProc: 3}); err == nil {
		t.Error("infeasible B accepted")
	}
	if _, err := MWMContract(g, Options{Processors: 0}); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := MWMContract(graph.New("empty", 0), Options{Processors: 2}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestMWMContractDefaultBound(t *testing.T) {
	// 12 tasks on 3 processors: default B = 2*ceil(12/6) = 4.
	g := fig5Graph()
	part, err := MWMContract(g, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	partValid(t, g, part, 3, 4)
}

func TestMWMBeatsOrMatchesBaselines(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 8 + r.Intn(17) // 8..24 tasks
		g := graph.New("rand", n)
		p := g.AddCommPhase("c")
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if r.Intn(3) == 0 {
					g.AddEdge(p, a, b, float64(1+r.Intn(20)))
				}
			}
		}
		procs := 2 + r.Intn(3)
		b := 2 * ((n + 2*procs - 1) / (2 * procs))
		part, err := MWMContract(g, Options{Processors: procs, MaxTasksPerProc: b})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		partValid(t, g, part, procs, b)
		randPart := Random(g, procs, int64(trial))
		// Not a strict guarantee, but across 30 trials MWM should never
		// be worse than a random balanced partition.
		if g.EdgeCut(part) > g.EdgeCut(randPart) {
			t.Errorf("trial %d: MWM cut %g worse than random %g", trial, g.EdgeCut(part), g.EdgeCut(randPart))
		}
	}
}

func TestGreedyOnlyAblation(t *testing.T) {
	g := fig5Graph()
	part, err := GreedyOnly(g, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	partValid(t, g, part, 3, 4)
	// Greedy-only is allowed to be worse, never better than optimal 6.
	if cut := g.EdgeCut(part); cut < 6 {
		t.Errorf("greedy-only cut %g beats the optimum", cut)
	}
}

func TestRandomBaselineBalanced(t *testing.T) {
	g := fig5Graph()
	part := Random(g, 3, 42)
	partValid(t, g, part, 3, 4)
	sizes := make(map[int]int)
	for _, c := range part {
		sizes[c]++
	}
	for _, s := range sizes {
		if s != 4 {
			t.Errorf("random partition not balanced: %v", sizes)
		}
	}
}

// --- Group-theoretic contraction (paper Fig 4) -------------------------

func TestGroupContractBroadcast8(t *testing.T) {
	w, _ := workload.ByName("broadcast8")
	c, err := w.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	part, info, err := GroupContract(context.Background(), c.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	partValid(t, c.Graph, part, 4, 2)
	// |T|/|A| = 2 is prime => Sylow guarantee.
	if !info.SylowGuaranteed {
		t.Error("Sylow guarantee not detected for |T|/|A| = 2")
	}
	// The subgroup should be {E0, E4}, generated by comm3.
	if info.FromGenerator != "comm3" {
		t.Errorf("subgroup from %q, want comm3", info.FromGenerator)
	}
	if len(info.Subgroup) != 2 {
		t.Errorf("subgroup size = %d, want 2", len(info.Subgroup))
	}
	if !info.Normal {
		t.Error("subgroup of abelian Z8 must be normal")
	}
	// Clusters are antipodal pairs {i, i+4}.
	for i := 0; i < 4; i++ {
		if part[i] != part[i+4] {
			t.Errorf("tasks %d and %d should share a cluster: part=%v", i, i+4, part)
		}
	}
	// comm3 internalizes 2 messages per cluster (paper's example);
	// comm1 and comm2 internalize none.
	if info.InternalizedPerCluster["comm3"] != 2 {
		t.Errorf("comm3 internalized = %d, want 2", info.InternalizedPerCluster["comm3"])
	}
	if info.InternalizedPerCluster["comm1"] != 0 || info.InternalizedPerCluster["comm2"] != 0 {
		t.Errorf("comm1/comm2 internalized = %v", info.InternalizedPerCluster)
	}
}

func TestGroupContractNBody(t *testing.T) {
	// The n-body graph for even n' (here 16 with +1 and +8 functions)
	// is a circulant graph = Cayley graph of Z16.
	g := graph.New("circulant16", 16)
	ring := g.AddCommPhase("ring")
	chord := g.AddCommPhase("chordal")
	for i := 0; i < 16; i++ {
		g.AddEdge(ring, i, (i+1)%16, 1)
		g.AddEdge(chord, i, (i+8)%16, 1)
	}
	part, info, err := GroupContract(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	partValid(t, g, part, 4, 4)
	// Subgroup of order 4: generated by chordal? chordal has order 2,
	// so it must come from enumeration or ring^4; either way clusters
	// have 4 tasks each and uniform internalization.
	if info.InternalizedPerCluster["chordal"] != 4 && info.InternalizedPerCluster["ring"] != 3 {
		// The exact split depends on the subgroup found; assert
		// uniformity was verified (non-error) and balance held.
		t.Logf("internalized: %v (subgroup %v)", info.InternalizedPerCluster, info.Subgroup)
	}
}

func TestGroupContractRejectsNonBijection(t *testing.T) {
	g := graph.New("star", 4)
	p := g.AddCommPhase("fan")
	for i := 1; i < 4; i++ {
		g.AddEdge(p, 0, i, 1)
	}
	if _, _, err := GroupContract(context.Background(), g, 2); err == nil {
		t.Error("non-bijective phase accepted")
	}
}

func TestGroupContractRejectsNonCayley(t *testing.T) {
	// A bijective phase set that generates a group larger than |X|:
	// two transpositions on 4 points generating S3-like action... use
	// (01) and (12): closure is S3 acting on {0,1,2}, with 3 fixed -> 6 > 4.
	g := graph.New("noncayley", 4)
	p1 := g.AddCommPhase("a")
	g.AddEdge(p1, 0, 1, 1)
	g.AddEdge(p1, 1, 0, 1)
	g.AddEdge(p1, 2, 2, 1)
	g.AddEdge(p1, 3, 3, 1)
	p2 := g.AddCommPhase("b")
	g.AddEdge(p2, 1, 2, 1)
	g.AddEdge(p2, 2, 1, 1)
	g.AddEdge(p2, 0, 0, 1)
	g.AddEdge(p2, 3, 3, 1)
	if _, _, err := GroupContract(context.Background(), g, 2); err == nil {
		t.Error("non-Cayley graph accepted")
	}
}

func TestGroupContractBadDivisor(t *testing.T) {
	w, _ := workload.ByName("broadcast8")
	c, _ := w.Compile(nil)
	if _, _, err := GroupContract(context.Background(), c.Graph, 3); err == nil {
		t.Error("non-dividing cluster count accepted")
	}
}

func TestGroupContractMatMulTorus(t *testing.T) {
	// Cannon's shifts generate Z4 x Z4 acting regularly on 16 PEs.
	w, _ := workload.ByName("matmul")
	c, err := w.Compile(map[string]int{"n": 4})
	if err != nil {
		t.Fatal(err)
	}
	part, info, err := GroupContract(context.Background(), c.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	partValid(t, c.Graph, part, 4, 4)
	if info.Group.Order() != 16 {
		t.Errorf("group order = %d, want 16", info.Group.Order())
	}
}

// Mapping integration: group contraction of broadcast8 then cluster graph.
func TestClusterGraphAfterGroupContract(t *testing.T) {
	w, _ := workload.ByName("broadcast8")
	c, _ := w.Compile(nil)
	part, _, err := GroupContract(context.Background(), c.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := mapping.New(c.Graph, topology.Hypercube(2))
	m.Part = part
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cg := m.ClusterGraph()
	if cg.NumTasks != 4 {
		t.Fatalf("cluster graph has %d nodes", cg.NumTasks)
	}
	// comm3 fully internalized: no edges in the cluster graph.
	if got := len(cg.CommPhaseByName("comm3").Edges); got != 0 {
		t.Errorf("comm3 cluster edges = %d, want 0", got)
	}
	// comm1 (+1 ring): aggregated 2-per-pair ring over 4 clusters.
	if got := len(cg.CommPhaseByName("comm1").Edges); got != 4 {
		t.Errorf("comm1 cluster edges = %d, want 4", got)
	}
}

// TestGroupContractDihedral exercises the non-abelian path: the task
// graph is the Cayley graph of the dihedral group D4 (8 elements) under
// right multiplication by a rotation r (order 4) and a reflection s
// (order 2). The subgroup {e, s} generated by the reflection is NOT
// normal in D4, and the paper notes the quotient "can still be used to
// obtain a possible contraction".
func TestGroupContractDihedral(t *testing.T) {
	// Represent D4 elements as (rot, flip): x = r^rot * s^flip,
	// enumerated as task id = rot + 4*flip.
	id := func(rot, flip int) int { return rot%4 + 4*(flip%2) }
	// Right multiplication by r: (rot, 0)*r = (rot+1, 0);
	// (rot, 1)*r = r^rot s r = r^(rot-1) s -> (rot-1, 1).
	mulR := func(task int) int {
		rot, flip := task%4, task/4
		if flip == 0 {
			return id(rot+1, 0)
		}
		return id(rot+3, 1)
	}
	// Right multiplication by s toggles the flip.
	mulS := func(task int) int {
		rot, flip := task%4, task/4
		return id(rot, 1-flip)
	}
	g := graph.New("d4", 8)
	pr := g.AddCommPhase("rot")
	ps := g.AddCommPhase("flip")
	for x := 0; x < 8; x++ {
		g.AddEdge(pr, x, mulR(x), 1)
		g.AddEdge(ps, x, mulS(x), 1)
	}
	part, info, err := GroupContract(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	partValid(t, g, part, 4, 2)
	if info.Group.Order() != 8 {
		t.Fatalf("|D4| = %d", info.Group.Order())
	}
	if len(info.Subgroup) != 2 {
		t.Fatalf("subgroup size = %d", len(info.Subgroup))
	}
	// The flip generator has order 2 and is the preferred subgroup
	// source; {e, s} is not normal in D4.
	if info.FromGenerator != "flip" {
		t.Errorf("subgroup from %q, want flip", info.FromGenerator)
	}
	if info.Normal {
		t.Error("subgroup {e,s} should not be normal in D4")
	}
	// With the non-normal subgroup {e,s}, the right-coset clusters
	// internalize flip edges only where tasks commute with s, so the
	// count is non-uniform (-1); rotation edges cross clusters
	// everywhere (uniform 0).
	if info.InternalizedPerCluster["flip"] != -1 {
		t.Errorf("flip internalized = %d, want -1 (non-uniform)", info.InternalizedPerCluster["flip"])
	}
	if info.InternalizedPerCluster["rot"] != 0 {
		t.Errorf("rot internalized = %d, want 0", info.InternalizedPerCluster["rot"])
	}
}
