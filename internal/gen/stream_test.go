package gen

import (
	"testing"

	"oregami/internal/graph"
)

func TestGrid2D(t *testing.T) {
	g := Grid2D(3, 4)
	if g.NumTasks != 12 {
		t.Fatalf("NumTasks = %d", g.NumTasks)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := 3*3 + 2*4; g.NumEdges() != want {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// Exact preallocation: append never grew the slice.
	p := g.Comm[0]
	if cap(p.Edges) != len(p.Edges) {
		t.Errorf("edges cap %d != len %d", cap(p.Edges), len(p.Edges))
	}
	for _, e := range p.Edges {
		if e.Weight < 1 || e.Weight > 3 || e.Weight != float64(int(e.Weight)) {
			t.Fatalf("weight %v not an integer in 1..3", e.Weight)
		}
	}
	// CSR of a grid: interior connectivity.
	c := g.CSR()
	if c.Degree(5) != 4 || c.Degree(0) != 2 {
		t.Errorf("degrees: interior %d (want 4), corner %d (want 2)", c.Degree(5), c.Degree(0))
	}
}

func TestSmallWorld(t *testing.T) {
	g := SmallWorld(3, 100, 2)
	if g.NumTasks != 100 || g.NumEdges() != 300 {
		t.Fatalf("n=%d edges=%d", g.NumTasks, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Comm[0].Edges {
		if e.From == e.To {
			t.Fatalf("self edge at %d", e.From)
		}
	}
	// Deterministic in the seed.
	h := SmallWorld(3, 100, 2)
	for i, e := range g.Comm[0].Edges {
		if h.Comm[0].Edges[i] != e {
			t.Fatalf("edge %d differs across runs: %v vs %v", i, e, h.Comm[0].Edges[i])
		}
	}
	if d := SmallWorld(4, 100, 2); d.Comm[0].Edges[1] == g.Comm[0].Edges[1] && d.Comm[0].Edges[2] == g.Comm[0].Edges[2] {
		t.Error("different seeds produced identical chords")
	}
}

// The streaming generators must stay out of the coarsener's allocation
// story: graph.New builds every label in O(1) allocations.
func TestStreamLabelSharing(t *testing.T) {
	g := Grid2D(40, 25)
	ref := graph.New("ref", 1000)
	for i, l := range g.Labels {
		if l != ref.Labels[i] {
			t.Fatalf("label %d = %q, want %q", i, l, ref.Labels[i])
		}
	}
}
