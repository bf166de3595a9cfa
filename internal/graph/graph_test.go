package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

// ringGraph builds the n-body ring phase: i -> (i+1) mod n.
func ringGraph(n int) *TaskGraph {
	g := New("ring", n)
	p := g.AddCommPhase("ring")
	for i := 0; i < n; i++ {
		g.AddEdge(p, i, (i+1)%n, 1)
	}
	return g
}

func TestNewLabels(t *testing.T) {
	g := New("g", 3)
	want := []string{"0", "1", "2"}
	for i, l := range g.Labels {
		if l != want[i] {
			t.Errorf("label[%d] = %q, want %q", i, l, want[i])
		}
	}
	if g.NumEdges() != 0 {
		t.Errorf("new graph has %d edges, want 0", g.NumEdges())
	}
}

func TestAddCommPhaseDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate comm phase did not panic")
		}
	}()
	g := New("g", 2)
	g.AddCommPhase("p")
	g.AddCommPhase("p")
}

func TestAddEdgeRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	g := New("g", 2)
	p := g.AddCommPhase("p")
	g.AddEdge(p, 0, 2, 1)
}

func TestPhaseLookup(t *testing.T) {
	g := New("g", 4)
	g.AddCommPhase("a")
	g.AddCommPhase("b")
	g.AddExecPhase("x", 2)
	if got := g.CommPhaseByName("b"); got == nil || got.Name != "b" {
		t.Errorf("CommPhaseByName(b) = %v", got)
	}
	if g.CommPhaseByName("zzz") != nil {
		t.Error("lookup of missing comm phase returned non-nil")
	}
	if got := g.ExecPhaseByName("x"); got == nil || got.Uniform != 2 {
		t.Errorf("ExecPhaseByName(x) = %v", got)
	}
	if g.ExecPhaseByName("a") != nil {
		t.Error("lookup of missing exec phase returned non-nil")
	}
}

func TestRingStructure(t *testing.T) {
	g := ringGraph(8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 8 {
		t.Fatalf("ring(8) has %d edges, want 8", g.NumEdges())
	}
	if g.TotalVolume() != 8 {
		t.Errorf("TotalVolume = %g, want 8", g.TotalVolume())
	}
	for v := 0; v < 8; v++ {
		if d := g.Degree(v); d != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, d)
		}
	}
}

func TestCollapsedWeightsMergesDirections(t *testing.T) {
	g := New("g", 2)
	p := g.AddCommPhase("p")
	g.AddEdge(p, 0, 1, 3)
	g.AddEdge(p, 1, 0, 4)
	q := g.AddCommPhase("q")
	g.AddEdge(q, 0, 1, 5)
	w := g.CollapsedEntries(1)
	if len(w) != 1 {
		t.Fatalf("collapsed graph has %d entries, want 1", len(w))
	}
	if got := w[0]; got != (CollapsedEntry{A: 0, B: 1, W: 12}) {
		t.Errorf("collapsed entry = %+v, want {0 1 12}", got)
	}
}

func TestCollapsedIgnoresSelfLoops(t *testing.T) {
	g := New("g", 2)
	p := g.AddCommPhase("p")
	g.AddEdge(p, 0, 0, 7)
	if len(g.CollapsedEntries(1)) != 0 || g.CSR().NumPairs() != 0 {
		t.Error("self loop appeared in collapsed weights")
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := ringGraph(5)
	adj := g.Undirected()
	for v := range adj {
		for _, nb := range adj[v] {
			found := false
			for _, back := range adj[nb.To] {
				if back.To == v && back.Weight == nb.Weight {
					found = true
				}
			}
			if !found {
				t.Errorf("edge %d->%d (w=%g) has no symmetric partner", v, nb.To, nb.Weight)
			}
		}
	}
}

func TestValidateCatchesBadCostVector(t *testing.T) {
	g := New("g", 3)
	e := g.AddExecPhase("x", 1)
	e.Cost = []float64{1, 2}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted wrong-length cost vector")
	}
}

func TestExecPhaseCosts(t *testing.T) {
	g := New("g", 3)
	u := g.AddExecPhase("u", 2.5)
	if u.TaskCost(1) != 2.5 {
		t.Errorf("uniform TaskCost = %g", u.TaskCost(1))
	}
	if u.TotalExecCost(3) != 7.5 {
		t.Errorf("uniform TotalExecCost = %g", u.TotalExecCost(3))
	}
	c := g.AddExecPhase("c", 0)
	c.Cost = []float64{1, 2, 3}
	if c.TaskCost(2) != 3 {
		t.Errorf("vector TaskCost = %g", c.TaskCost(2))
	}
	if c.TotalExecCost(3) != 6 {
		t.Errorf("vector TotalExecCost = %g", c.TotalExecCost(3))
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := ringGraph(4)
	g.AddExecPhase("x", 1)
	c := g.Clone()
	c.Comm[0].Edges[0].Weight = 99
	c.Labels[0] = "mutated"
	if g.Comm[0].Edges[0].Weight == 99 {
		t.Error("clone shares edge storage with original")
	}
	if g.Labels[0] == "mutated" {
		t.Error("clone shares label storage with original")
	}
	if c.CommPhaseByName("ring") == nil || c.ExecPhaseByName("x") == nil {
		t.Error("clone lost phase indices")
	}
}

func TestIsNodeSymmetricCandidate(t *testing.T) {
	if !ringGraph(6).IsNodeSymmetricCandidate() {
		t.Error("ring should be a node-symmetric candidate")
	}
	g := New("star", 4)
	p := g.AddCommPhase("fan")
	for i := 1; i < 4; i++ {
		g.AddEdge(p, 0, i, 1)
	}
	if g.IsNodeSymmetricCandidate() {
		t.Error("star fan-out should not be a node-symmetric candidate")
	}
	empty := New("e", 3)
	if empty.IsNodeSymmetricCandidate() {
		t.Error("graph with no phases should not be a candidate")
	}
}

func TestPhasePermutation(t *testing.T) {
	g := ringGraph(5)
	img, ok := g.PhasePermutation(g.Comm[0])
	if !ok {
		t.Fatal("ring phase should be a bijection")
	}
	for i, to := range img {
		if to != (i+1)%5 {
			t.Errorf("img[%d] = %d, want %d", i, to, (i+1)%5)
		}
	}
	bad := New("b", 3)
	p := bad.AddCommPhase("p")
	bad.AddEdge(p, 0, 1, 1)
	bad.AddEdge(p, 0, 2, 1)
	bad.AddEdge(p, 1, 2, 1)
	if _, ok := bad.PhasePermutation(p); ok {
		t.Error("non-bijective phase reported as permutation")
	}
}

func TestComponents(t *testing.T) {
	g := New("two", 5)
	p := g.AddCommPhase("p")
	g.AddEdge(p, 0, 1, 1)
	g.AddEdge(p, 3, 4, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3 (01, 2, 34)", len(comps))
	}
	if len(comps[0]) != 2 || len(comps[1]) != 1 || len(comps[2]) != 2 {
		t.Errorf("component sizes = %v", comps)
	}
}

func TestBFSDistancesRing(t *testing.T) {
	g := ringGraph(8)
	d := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, 4, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	g := New("g", 3)
	p := g.AddCommPhase("p")
	g.AddEdge(p, 0, 1, 1)
	d := g.BFSDistances(0)
	if d[2] != -1 {
		t.Errorf("unreachable dist = %d, want -1", d[2])
	}
}

func TestEdgeCut(t *testing.T) {
	g := ringGraph(4) // edges 01,12,23,30 each weight 1
	cut := g.EdgeCut([]int{0, 0, 1, 1})
	if cut != 2 {
		t.Errorf("EdgeCut = %g, want 2", cut)
	}
	if c := g.EdgeCut([]int{0, 0, 0, 0}); c != 0 {
		t.Errorf("single-part cut = %g, want 0", c)
	}
}

func TestStringAndDOT(t *testing.T) {
	g := ringGraph(3)
	g.AddExecPhase("compute", 1)
	s := g.String()
	for _, want := range []string{"3 tasks", "ring", "compute"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in %q", want, s)
		}
	}
	dot := g.DOT()
	if !strings.Contains(dot, "0 -> 1") || !strings.Contains(dot, "digraph") {
		t.Errorf("DOT output malformed: %s", dot)
	}
}

// Property: EdgeCut of the all-distinct partition equals total collapsed
// weight, and of the all-same partition equals zero.
func TestEdgeCutExtremesProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%7+2) * 2
		if n < 0 {
			n = -n
		}
		g := ringGraph(n)
		same := make([]int, n)
		diff := make([]int, n)
		for i := range diff {
			diff[i] = i
		}
		var total float64
		for _, w := range g.CSR().W {
			total += w // each pair sits on both of its rows
		}
		total /= 2
		return g.EdgeCut(same) == 0 && g.EdgeCut(diff) == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxDegree(t *testing.T) {
	g := New("star", 5)
	p := g.AddCommPhase("p")
	for i := 1; i < 5; i++ {
		g.AddEdge(p, 0, i, 1)
	}
	if got := g.MaxDegree(); got != 4 {
		t.Errorf("MaxDegree = %d, want 4", got)
	}
}
