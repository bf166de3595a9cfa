package canned

import (
	"testing"

	"oregami/internal/graph"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// taskGraphOf builds a task graph whose collapsed structure equals the
// given network (one comm phase, unit weights).
func taskGraphOf(nw *topology.Network) *graph.TaskGraph {
	g := graph.New(nw.Kind, nw.N)
	p := g.AddCommPhase("c")
	for _, l := range nw.Links() {
		g.AddEdge(p, l.A, l.B, 1)
	}
	return g
}

func TestDetectFamilies(t *testing.T) {
	cases := []struct {
		nw     *topology.Network
		family string
		params []int
	}{
		{topology.Ring(6), FamilyRing, []int{6}},
		{topology.Ring(5), FamilyRing, []int{5}},
		{topology.Linear(7), FamilyLinear, []int{7}},
		{topology.Mesh(3, 5), FamilyGrid, nil}, // orientation may transpose
		{topology.Mesh(4, 4), FamilyGrid, []int{4, 4}},
		{topology.Hypercube(3), FamilyHypercube, []int{3}},
		{topology.Hypercube(4), FamilyHypercube, []int{4}},
		{topology.CompleteBinaryTree(3), FamilyCBTree, []int{3}},
		{topology.BinomialTree(4), FamilyBinomial, []int{4}},
	}
	for _, tc := range cases {
		det := Detect(taskGraphOf(tc.nw))
		if det == nil {
			t.Errorf("%s: not detected", tc.nw.Name)
			continue
		}
		if det.Family != tc.family {
			t.Errorf("%s: detected %s, want %s", tc.nw.Name, det.Family, tc.family)
			continue
		}
		for i, p := range tc.params {
			if det.Params[i] != p {
				t.Errorf("%s: params %v, want %v", tc.nw.Name, det.Params, tc.params)
			}
		}
		if tc.family == FamilyGrid {
			if det.Params[0]*det.Params[1] != tc.nw.N {
				t.Errorf("%s: grid params %v inconsistent", tc.nw.Name, det.Params)
			}
		}
		// Canon must be a bijection.
		seen := make([]bool, tc.nw.N)
		for _, c := range det.Canon {
			if c < 0 || c >= tc.nw.N || seen[c] {
				t.Errorf("%s: canon not a bijection: %v", tc.nw.Name, det.Canon)
				break
			}
			seen[c] = true
		}
	}
}

func TestDetectRejects(t *testing.T) {
	// A star is none of the families.
	if det := Detect(taskGraphOf(topology.Star(6))); det != nil {
		t.Errorf("star detected as %v", det)
	}
	// Complete graph K5.
	if det := Detect(taskGraphOf(topology.Complete(5))); det != nil {
		t.Errorf("K5 detected as %v", det)
	}
	// An almost-ring (one chord) must not pass.
	g := taskGraphOf(topology.Ring(8))
	g.AddEdge(g.Comm[0], 0, 4, 1)
	if det := Detect(g); det != nil && det.Family == FamilyRing {
		t.Error("chordal ring detected as plain ring")
	}
}

func TestDetectWorkloads(t *testing.T) {
	// Jacobi's collapsed structure is a grid; binomial workload is B_k;
	// FFT16's union of stages is the 4-cube.
	w, _ := workload.ByName("jacobi")
	c, _ := w.Compile(map[string]int{"n": 6})
	det := Detect(c.Graph)
	if det == nil || det.Family != FamilyGrid {
		t.Errorf("jacobi detected as %v, want grid", det)
	}
	w, _ = workload.ByName("binomial")
	c, _ = w.Compile(map[string]int{"k": 5})
	det = Detect(c.Graph)
	if det == nil || det.Family != FamilyBinomial || det.Params[0] != 5 {
		t.Errorf("binomial detected as %v", det)
	}
	w, _ = workload.ByName("fft16")
	c, _ = w.Compile(nil)
	det = Detect(c.Graph)
	if det == nil || det.Family != FamilyHypercube || det.Params[0] != 4 {
		t.Errorf("fft16 detected as %v, want hypercube(4)", det)
	}
	w, _ = workload.ByName("nbody")
	c, _ = w.Compile(map[string]int{"n": 15, "s": 1})
	if det := Detect(c.Graph); det != nil && det.Family == FamilyRing {
		t.Error("chordal n-body graph misdetected as plain ring")
	}
}

// dilationOf measures max and average dilation of the canonical family
// edges under the embedding.
func dilationOf(t *testing.T, nw *topology.Network, tg *graph.TaskGraph, canon []int, e *Embedding, target *topology.Network) (int, float64) {
	t.Helper()
	maxD, sum, count := 0, 0, 0
	for _, pair := range tg.CollapsedEntries() {
		p1 := e.Proc[canon[pair.A]]
		p2 := e.Proc[canon[pair.B]]
		d := target.Distance(p1, p2)
		if d == 0 {
			t.Fatalf("two tasks on one processor in a 1:1 embedding")
		}
		if d > maxD {
			maxD = d
		}
		sum += d
		count++
	}
	_ = nw
	return maxD, float64(sum) / float64(count)
}

func TestRingIntoHypercubeDilation1(t *testing.T) {
	// d = 2 is excluded: ring(4) is itself Q2 and detects as a
	// hypercube, which takes priority.
	for d := 3; d <= 6; d++ {
		net := topology.Hypercube(d)
		src := topology.Ring(net.N)
		tg := taskGraphOf(src)
		det := Detect(tg)
		if det == nil {
			t.Fatal("ring not detected")
		}
		e, err := RingIntoHypercube(net.N, net)
		if err != nil {
			t.Fatal(err)
		}
		maxD, _ := dilationOf(t, src, tg, det.Canon, e, net)
		if maxD != 1 {
			t.Errorf("d=%d: gray ring dilation %d, want 1", d, maxD)
		}
	}
}

func TestRingIntoMeshDilation1(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {2, 6}, {4, 5}, {5, 4}, {6, 3}} {
		net := topology.Mesh(dims[0], dims[1])
		src := topology.Ring(net.N)
		tg := taskGraphOf(src)
		det := Detect(tg)
		e, err := RingIntoMesh(net.N, net)
		if err != nil {
			if dims[0]%2 == 1 && dims[1]%2 == 1 {
				continue // odd x odd has no Hamiltonian cycle
			}
			t.Fatalf("%v: %v", dims, err)
		}
		maxD, _ := dilationOf(t, src, tg, det.Canon, e, net)
		if maxD != 1 {
			t.Errorf("%v: snake ring dilation %d, want 1", dims, maxD)
		}
	}
	// Odd x odd must fail.
	if _, err := RingIntoMesh(9, topology.Mesh(3, 3)); err == nil {
		t.Error("3x3 Hamiltonian cycle claimed")
	}
}

func TestGridIntoHypercubeDilation1(t *testing.T) {
	net := topology.Hypercube(5)
	src := topology.Mesh(4, 8)
	tg := taskGraphOf(src)
	det := Detect(tg)
	if det == nil || det.Family != FamilyGrid {
		t.Fatal("grid not detected")
	}
	e, err := GridIntoHypercube(det.Params[0], det.Params[1], net)
	if err != nil {
		t.Fatal(err)
	}
	maxD, _ := dilationOf(t, src, tg, det.Canon, e, net)
	if maxD != 1 {
		t.Errorf("grid->hypercube dilation %d, want 1", maxD)
	}
}

func TestBinomialIntoHypercubeDilation1(t *testing.T) {
	net := topology.Hypercube(5)
	src := topology.BinomialTree(5)
	tg := taskGraphOf(src)
	det := Detect(tg)
	e, err := BinomialIntoHypercube(5, net)
	if err != nil {
		t.Fatal(err)
	}
	maxD, _ := dilationOf(t, src, tg, det.Canon, e, net)
	if maxD != 1 {
		t.Errorf("binomial->hypercube dilation %d, want 1", maxD)
	}
}

func TestCBTreeIntoHypercubeDilation2(t *testing.T) {
	for depth := 1; depth <= 6; depth++ {
		net := topology.Hypercube(depth + 1)
		src := topology.CompleteBinaryTree(depth)
		tg := taskGraphOf(src)
		det := Detect(tg)
		if det == nil {
			t.Fatalf("depth %d: cbtree not detected", depth)
		}
		e, err := CBTreeIntoHypercube(depth, net)
		if err != nil {
			t.Fatal(err)
		}
		// Canonical ids are heap order; embedding expects heap order.
		maxD, _ := dilationOf(t, src, tg, det.Canon, e, net)
		if maxD > 2 {
			t.Errorf("depth %d: inorder tree dilation %d, want <= 2", depth, maxD)
		}
	}
}

// TestBinomialIntoMeshAvgDilation is experiment C1: the paper's claimed
// average dilation bound of 1.2 for the binomial tree in the square
// mesh, for arbitrarily large trees.
func TestBinomialIntoMeshAvgDilation(t *testing.T) {
	for k := 2; k <= 14; k++ {
		rows := 1 << uint((k+1)/2)
		cols := 1 << uint(k/2)
		net := topology.Mesh(rows, cols)
		e, err := BinomialIntoMesh(k, net)
		if err != nil {
			t.Fatal(err)
		}
		// Edges of B_k under bitmask labels: (v, v & (v-1)).
		sum, count := 0, 0
		maxD := 0
		for v := 1; v < 1<<uint(k); v++ {
			d := net.Distance(e.Proc[v], e.Proc[v&(v-1)])
			sum += d
			count++
			if d > maxD {
				maxD = d
			}
		}
		avg := float64(sum) / float64(count)
		if avg > 1.2 {
			t.Errorf("k=%d: average dilation %.4f exceeds the paper's 1.2 bound", k, avg)
		}
		// Embedding must be a bijection onto the mesh.
		seen := make([]bool, net.N)
		for _, p := range e.Proc {
			if seen[p] {
				t.Fatalf("k=%d: embedding not injective", k)
			}
			seen[p] = true
		}
	}
}

func TestLookupDispatch(t *testing.T) {
	for _, tc := range []struct {
		src  *topology.Network
		net  *topology.Network
		want string
	}{
		{topology.Ring(8), topology.Hypercube(3), "ring->hypercube(gray)"},
		{topology.Ring(8), topology.Mesh(2, 4), "ring->mesh(snake)"},
		{topology.Ring(8), topology.Ring(8), "ring->ring(identity)"},
		{topology.Mesh(2, 4), topology.Hypercube(3), "grid->hypercube(gray2)"},
		{topology.Mesh(2, 4), topology.Mesh(2, 4), "grid->mesh(identity)"},
		{topology.Mesh(2, 4), topology.Mesh(4, 2), "grid->mesh(identity)"},
		{topology.Hypercube(3), topology.Hypercube(3), "hypercube->hypercube(identity)"},
		{topology.BinomialTree(4), topology.Hypercube(4), "binomial->hypercube(identity)"},
		{topology.BinomialTree(4), topology.Mesh(4, 4), "binomial->mesh(recursive)"},
		{topology.CompleteBinaryTree(2), topology.Hypercube(3), "cbtree->hypercube(inorder)"},
		{topology.Linear(8), topology.Hypercube(3), "linear->hypercube(gray)"},
	} {
		det := Detect(taskGraphOf(tc.src))
		if det == nil {
			t.Errorf("%s: not detected", tc.src.Name)
			continue
		}
		e := Lookup(det, tc.net)
		if e == nil {
			t.Errorf("%s -> %s: no canned mapping", tc.src.Name, tc.net.Name)
			continue
		}
		if e.Name != tc.want {
			t.Errorf("%s -> %s: got %s, want %s", tc.src.Name, tc.net.Name, e.Name, tc.want)
		}
	}
	// Mismatched sizes: no mapping.
	det := Detect(taskGraphOf(topology.Ring(6)))
	if e := Lookup(det, topology.Hypercube(3)); e != nil {
		t.Error("ring(6) embedded into hypercube(3)")
	}
}

func TestFoldRing(t *testing.T) {
	det := Detect(taskGraphOf(topology.Ring(12)))
	part, err := Fold(det, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	for _, c := range part {
		sizes[c]++
	}
	if len(sizes) != 4 {
		t.Fatalf("fold produced %d clusters", len(sizes))
	}
	for _, s := range sizes {
		if s != 3 {
			t.Errorf("uneven fold: %v", sizes)
		}
	}
	// Quotient adjacency is a 4-ring: consecutive blocks adjacent.
	if part[0] != part[2] || part[2] == part[3] {
		t.Errorf("fold not blockwise: %v", part)
	}
	if _, err := Fold(det, 5); err == nil {
		t.Error("non-dividing fold accepted")
	}
}

func TestFoldGrid(t *testing.T) {
	det := Detect(taskGraphOf(topology.Mesh(4, 6)))
	part, err := Fold(det, 6)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	for _, c := range part {
		sizes[c]++
	}
	if len(sizes) != 6 {
		t.Fatalf("fold produced %d clusters", len(sizes))
	}
	for _, s := range sizes {
		if s != 4 {
			t.Errorf("uneven grid fold: %v", sizes)
		}
	}
}

func TestFoldHypercubeAndBinomial(t *testing.T) {
	det := Detect(taskGraphOf(topology.Hypercube(4)))
	part, err := Fold(det, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Each cluster is a subcube of 4 nodes sharing low 2 bits.
	for v, c := range part {
		if c != v&3 {
			t.Errorf("hypercube fold: part[%d] = %d", v, c)
		}
	}
	det = Detect(taskGraphOf(topology.BinomialTree(4)))
	part, err = Fold(det, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	for _, c := range part {
		sizes[c]++
	}
	for _, s := range sizes {
		if s != 4 {
			t.Errorf("binomial fold uneven: %v", sizes)
		}
	}
	if _, err := Fold(det, 3); err == nil {
		t.Error("non-power-of-two fold accepted")
	}
}

func TestCBTreeIntoMeshHTree(t *testing.T) {
	for depth := 1; depth <= 10; depth++ {
		rows := 1 << uint((depth+2)/2)
		cols := 1 << uint((depth+1)/2)
		net := topology.Mesh(rows, cols)
		e, err := CBTreeIntoMesh(depth, net)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		n := 1<<uint(depth+1) - 1
		// Injective into the mesh (one spare cell).
		seen := make([]bool, net.N)
		for _, p := range e.Proc {
			if seen[p] {
				t.Fatalf("depth %d: cell %d reused", depth, p)
			}
			seen[p] = true
		}
		// Dilation over heap edges.
		sum, count, maxD := 0, 0, 0
		for v := 1; v < n; v++ {
			d := net.Distance(e.Proc[v], e.Proc[(v-1)/2])
			sum += d
			count++
			if d > maxD {
				maxD = d
			}
		}
		avg := float64(sum) / float64(count)
		// Measured: converges to ~1.7 (see EXPERIMENTS.md notes).
		if avg > 1.8 {
			t.Errorf("depth %d: H-tree avg dilation %.3f too large", depth, avg)
		}
		if depth <= 3 && maxD > 3 {
			t.Errorf("depth %d: small-tree max dilation %d", depth, maxD)
		}
	}
}

func TestLookupCBTreeMesh(t *testing.T) {
	det := Detect(taskGraphOf(topology.CompleteBinaryTree(3)))
	if det == nil {
		t.Fatal("cbtree not detected")
	}
	e := Lookup(det, topology.Mesh(4, 4))
	if e == nil || e.Name != "cbtree->mesh(htree)" {
		t.Errorf("lookup = %v", e)
	}
}

func TestDetectTorus(t *testing.T) {
	for _, dims := range [][2]int{{5, 5}, {5, 7}, {6, 8}, {8, 8}} {
		nw := topology.Torus(dims[0], dims[1])
		det := Detect(taskGraphOf(nw))
		if det == nil || det.Family != FamilyTorus {
			t.Errorf("torus%v detected as %v", dims, det)
			continue
		}
		if det.Params[0]*det.Params[1] != nw.N {
			t.Errorf("torus%v params %v", dims, det.Params)
		}
		seen := make([]bool, nw.N)
		for _, c := range det.Canon {
			if c < 0 || c >= nw.N || seen[c] {
				t.Fatalf("torus%v canon not a bijection", dims)
			}
			seen[c] = true
		}
	}
	// Small tori are NOT detected as torus (4x4 is the 4-cube).
	if det := Detect(taskGraphOf(topology.Torus(4, 4))); det != nil && det.Family == FamilyTorus {
		t.Error("4x4 torus claimed by torus detector")
	}
}

func TestDetectMatMulWorkloadTorus(t *testing.T) {
	w, _ := workload.ByName("matmul")
	c, _ := w.Compile(map[string]int{"n": 8})
	det := Detect(c.Graph)
	if det == nil || det.Family != FamilyTorus {
		t.Fatalf("matmul(8) detected as %v, want torus", det)
	}
	if det.Params[0] != 8 || det.Params[1] != 8 {
		t.Errorf("params = %v", det.Params)
	}
}

func TestTorusEmbeddings(t *testing.T) {
	src := topology.Torus(8, 8)
	tg := taskGraphOf(src)
	det := Detect(tg)
	if det == nil || det.Family != FamilyTorus {
		t.Fatal("torus(8x8) not detected")
	}
	// Identity onto torus.
	e, err := TorusIntoTorus(8, 8, topology.Torus(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	maxD, _ := dilationOf(t, src, tg, det.Canon, e, topology.Torus(8, 8))
	if maxD != 1 {
		t.Errorf("torus->torus dilation %d", maxD)
	}
	// Gray-coded onto hypercube(6), dilation 1 including wrap edges.
	cube := topology.Hypercube(6)
	e, err = TorusIntoHypercube(8, 8, cube)
	if err != nil {
		t.Fatal(err)
	}
	maxD, _ = dilationOf(t, src, tg, det.Canon, e, cube)
	if maxD != 1 {
		t.Errorf("torus->hypercube dilation %d, want 1", maxD)
	}
	// Folded onto the same-shape mesh: dilation <= 2.
	mesh := topology.Mesh(8, 8)
	e, err = TorusIntoMesh(8, 8, mesh)
	if err != nil {
		t.Fatal(err)
	}
	maxD, avg := dilationOf(t, src, tg, det.Canon, e, mesh)
	if maxD > 2 {
		t.Errorf("torus->mesh dilation %d, want <= 2", maxD)
	}
	if avg > 2 {
		t.Errorf("torus->mesh avg dilation %g", avg)
	}
	// Non-power-of-two onto hypercube fails.
	if _, err := TorusIntoHypercube(5, 5, topology.Hypercube(5)); err == nil {
		t.Error("5x5 torus into hypercube accepted")
	}
}

func TestLookupTorus(t *testing.T) {
	det := Detect(taskGraphOf(topology.Torus(8, 8)))
	for _, tc := range []struct {
		net  *topology.Network
		want string
	}{
		{topology.Torus(8, 8), "torus->torus(identity)"},
		{topology.Hypercube(6), "torus->hypercube(gray2)"},
		{topology.Mesh(8, 8), "torus->mesh(fold)"},
	} {
		e := Lookup(det, tc.net)
		if e == nil || e.Name != tc.want {
			t.Errorf("torus -> %s: got %v, want %s", tc.net.Name, e, tc.want)
		}
	}
}

// TestDetectDeterministic guards the bug class oregami-lint's maporder
// analyzer exists for: detectors that let map iteration order pick a
// direction or a child ordering produce a different Canon on different
// runs, silently changing every downstream mapping. PR 5 fixed the ring
// orientation; this covers the torus vertical direction and the cbtree
// left/right child labeling the same way — repeated detection must give
// byte-identical canonical labelings.
func TestDetectDeterministic(t *testing.T) {
	for _, nw := range []*topology.Network{
		topology.Torus(5, 5),
		topology.Torus(5, 7),
		topology.CompleteBinaryTree(4),
		topology.Ring(9),
		topology.Hypercube(4),
	} {
		first := Detect(taskGraphOf(nw))
		if first == nil {
			t.Fatalf("%s: not detected", nw.Name)
		}
		for run := 1; run < 20; run++ {
			det := Detect(taskGraphOf(nw))
			if det == nil || det.Family != first.Family {
				t.Fatalf("%s: run %d family %v, want %v", nw.Name, run, det, first.Family)
			}
			for v, c := range det.Canon {
				if c != first.Canon[v] {
					t.Fatalf("%s: run %d Canon[%d] = %d, want %d (map-order nondeterminism)", nw.Name, run, v, c, first.Canon[v])
				}
			}
		}
	}
}
