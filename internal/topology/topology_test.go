package topology

import (
	"math/bits"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestRingBasics(t *testing.T) {
	nw := Ring(8)
	if nw.N != 8 || nw.NumLinks() != 8 {
		t.Fatalf("ring(8): N=%d links=%d", nw.N, nw.NumLinks())
	}
	for v := 0; v < 8; v++ {
		if nw.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, nw.Degree(v))
		}
	}
	if d := nw.Distance(0, 4); d != 4 {
		t.Errorf("dist(0,4) = %d, want 4", d)
	}
	if d := nw.Diameter(); d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
}

func TestLinear(t *testing.T) {
	nw := Linear(5)
	if nw.NumLinks() != 4 {
		t.Errorf("linear(5) links = %d, want 4", nw.NumLinks())
	}
	if nw.Distance(0, 4) != 4 {
		t.Errorf("dist = %d, want 4", nw.Distance(0, 4))
	}
	if Linear(1).NumLinks() != 0 {
		t.Error("linear(1) should have no links")
	}
}

func TestMesh(t *testing.T) {
	nw := Mesh(3, 4)
	if nw.N != 12 {
		t.Fatalf("N = %d", nw.N)
	}
	// links: 3*3 horizontal + 2*4 vertical = 17
	if nw.NumLinks() != 17 {
		t.Errorf("mesh(3x4) links = %d, want 17", nw.NumLinks())
	}
	if nw.Distance(0, 11) != 5 {
		t.Errorf("dist corner-corner = %d, want 5", nw.Distance(0, 11))
	}
	r, c := nw.MeshCoord(7)
	if r != 1 || c != 3 {
		t.Errorf("coord(7) = (%d,%d), want (1,3)", r, c)
	}
}

func TestTorus(t *testing.T) {
	nw := Torus(4, 4)
	if nw.NumLinks() != 32 {
		t.Errorf("torus(4x4) links = %d, want 32", nw.NumLinks())
	}
	for v := 0; v < nw.N; v++ {
		if nw.Degree(v) != 4 {
			t.Errorf("degree(%d) = %d, want 4", v, nw.Degree(v))
		}
	}
	if nw.Distance(0, 15) != 2 {
		t.Errorf("wraparound dist(0,15) = %d, want 2", nw.Distance(0, 15))
	}
	// Degenerate extents must not double links.
	if small := Torus(2, 2); small.NumLinks() != 4 {
		t.Errorf("torus(2x2) links = %d, want 4", small.NumLinks())
	}
}

func TestHypercube(t *testing.T) {
	nw := Hypercube(4)
	if nw.N != 16 || nw.NumLinks() != 32 {
		t.Fatalf("hypercube(4): N=%d links=%d", nw.N, nw.NumLinks())
	}
	for a := 0; a < nw.N; a++ {
		for b := 0; b < nw.N; b++ {
			if got, want := nw.Distance(a, b), bits.OnesCount(uint(a^b)); got != want {
				t.Fatalf("dist(%d,%d) = %d, want hamming %d", a, b, got, want)
			}
		}
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	nw := CompleteBinaryTree(3)
	if nw.N != 15 || nw.NumLinks() != 14 {
		t.Fatalf("cbtree(3): N=%d links=%d", nw.N, nw.NumLinks())
	}
	if nw.Distance(7, 14) != 6 {
		t.Errorf("leaf-leaf dist = %d, want 6", nw.Distance(7, 14))
	}
	if !nw.Connected() {
		t.Error("tree disconnected")
	}
}

func TestBinomialTree(t *testing.T) {
	nw := BinomialTree(4)
	if nw.N != 16 || nw.NumLinks() != 15 {
		t.Fatalf("binomial(4): N=%d links=%d", nw.N, nw.NumLinks())
	}
	// Root 0 has degree k.
	if nw.Degree(0) != 4 {
		t.Errorf("root degree = %d, want 4", nw.Degree(0))
	}
	// Every non-root connects to its lowest-bit-cleared parent.
	for v := 1; v < 16; v++ {
		if _, ok := nw.LinkBetween(v, v&(v-1)); !ok {
			t.Errorf("missing parent link for %d", v)
		}
	}
}

func TestButterfly(t *testing.T) {
	nw := Butterfly(3)
	if nw.N != 32 {
		t.Fatalf("butterfly(3) N = %d, want 32", nw.N)
	}
	// Each of the k levels contributes 2*2^k links.
	if nw.NumLinks() != 3*2*8 {
		t.Errorf("links = %d, want 48", nw.NumLinks())
	}
	if !nw.Connected() {
		t.Error("butterfly disconnected")
	}
}

func TestCompleteAndStar(t *testing.T) {
	if Complete(5).NumLinks() != 10 {
		t.Error("complete(5) should have 10 links")
	}
	if Complete(5).Diameter() != 1 {
		t.Error("complete diameter should be 1")
	}
	s := Star(6)
	if s.NumLinks() != 5 || s.Degree(0) != 5 || s.Diameter() != 2 {
		t.Errorf("star(6): links=%d hub=%d diam=%d", s.NumLinks(), s.Degree(0), s.Diameter())
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		kind   string
		params []int
		n      int
	}{
		{"ring", []int{5}, 5},
		{"linear", []int{4}, 4},
		{"mesh", []int{2, 3}, 6},
		{"torus", []int{3, 3}, 9},
		{"hypercube", []int{3}, 8},
		{"cbtree", []int{2}, 7},
		{"binomial", []int{3}, 8},
		{"butterfly", []int{2}, 12},
		{"complete", []int{4}, 4},
		{"star", []int{4}, 4},
	} {
		nw, err := ByName(tc.kind, tc.params...)
		if err != nil {
			t.Errorf("ByName(%s): %v", tc.kind, err)
			continue
		}
		if nw.N != tc.n {
			t.Errorf("ByName(%s) N = %d, want %d", tc.kind, nw.N, tc.n)
		}
	}
	if _, err := ByName("nosuch", 3); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := ByName("mesh", 3); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := ByName("ring", 1); err == nil {
		t.Error("invalid parameter accepted")
	}
}

func TestKinds(t *testing.T) {
	kinds := Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Errorf("Kinds() not sorted: %v", kinds)
	}
	want := map[string]bool{}
	for _, k := range kinds {
		want[k] = true
		// Wrong arity must error (never panic) and name the family.
		_, err := ByName(k, make([]int, families[k].arity+1)...)
		if err == nil || !strings.Contains(err.Error(), k) {
			t.Errorf("ByName(%s) wrong arity: err = %v", k, err)
		}
	}
	for _, k := range []string{"ring", "mesh", "hypercube", "ccc", "star"} {
		if !want[k] {
			t.Errorf("Kinds() missing %q", k)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string // substrings the error must contain
	}{
		{"hypercube", []string{`"hypercube"`, "kind:params", "valid kinds", "mesh"}},
		{"hypercub:3", []string{`"hypercub"`, "valid kinds", "hypercube", `"hypercub:3"`}},
		{"mesh:4,x", []string{`"mesh:4,x"`, `"x"`, "not an integer"}},
		{"mesh:4", []string{"mesh takes 2 parameter(s), got 1", `"mesh:4"`}},
		{"ring:1", []string{"ring needs", `"ring:1"`}},
	} {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", tc.spec)
			continue
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("ParseSpec(%q) error %q missing %q", tc.spec, err, sub)
			}
		}
	}
	if nw, err := ParseSpec("mesh:4, 4"); err != nil || nw.N != 16 {
		t.Errorf("ParseSpec with spaces: nw=%v err=%v", nw, err)
	}
}

func TestNextHopsHypercube(t *testing.T) {
	nw := Hypercube(3)
	hops := nw.NextHops(0, 7)
	if len(hops) != 3 {
		t.Fatalf("NextHops(0,7) = %v, want 3 choices", hops)
	}
	for _, h := range hops {
		if bits.OnesCount(uint(h)) != 1 {
			t.Errorf("bad next hop %d", h)
		}
	}
	if nw.NextHops(5, 5) != nil {
		t.Error("NextHops to self should be nil")
	}
}

func TestShortestRoutesHypercube(t *testing.T) {
	nw := Hypercube(3)
	routes := nw.ShortestRoutes(0, 7, 0)
	if len(routes) != 6 { // 3! orderings of the three dimensions
		t.Fatalf("routes(0,7) = %d, want 6", len(routes))
	}
	for _, r := range routes {
		if len(r) != 3 {
			t.Errorf("route length %d, want 3", len(r))
		}
		path, ok := nw.RouteEndpoints(0, r)
		if !ok || path[len(path)-1] != 7 {
			t.Errorf("route %v does not reach 7 (path %v)", r, path)
		}
	}
	if got := nw.CountShortestRoutes(0, 7); got != 6 {
		t.Errorf("CountShortestRoutes = %d, want 6", got)
	}
	if capped := nw.ShortestRoutes(0, 7, 2); len(capped) != 2 {
		t.Errorf("limit ignored: got %d routes", len(capped))
	}
	self := nw.ShortestRoutes(3, 3, 0)
	if len(self) != 1 || len(self[0]) != 0 {
		t.Errorf("self route = %v", self)
	}
}

func TestRouteEndpointsRejectsInvalid(t *testing.T) {
	nw := Ring(4)
	if _, ok := nw.RouteEndpoints(0, Route{99}); ok {
		t.Error("accepted out-of-range link id")
	}
	// A link not incident to the current node.
	far, ok := nw.LinkBetween(2, 3)
	if !ok {
		t.Fatal("ring(4) missing link 2-3")
	}
	if _, ok := nw.RouteEndpoints(0, Route{far}); ok {
		t.Error("accepted non-incident link")
	}
}

func TestDimensionOrderRoute(t *testing.T) {
	nw := Hypercube(4)
	r, ok := nw.DimensionOrderRoute(3, 12) // 0011 -> 1100: flip bits 0,1,2,3
	if !ok || len(r) != 4 {
		t.Fatalf("ecube route = %v ok=%v", r, ok)
	}
	path, ok := nw.RouteEndpoints(3, r)
	if !ok || path[len(path)-1] != 12 {
		t.Errorf("ecube path %v does not reach 12", path)
	}
	// Lowest dimension first: first hop flips bit 0.
	if path[1] != 3^1 {
		t.Errorf("first hop = %d, want %d", path[1], 3^1)
	}
	if _, ok := Ring(4).DimensionOrderRoute(0, 2); ok {
		t.Error("e-cube routing on a ring should fail")
	}
}

func TestXYRouteMesh(t *testing.T) {
	nw := Mesh(4, 4)
	r, ok := nw.XYRoute(0, 15)
	if !ok || len(r) != 6 {
		t.Fatalf("xy route len = %d ok=%v, want 6", len(r), ok)
	}
	path, _ := nw.RouteEndpoints(0, r)
	if path[len(path)-1] != 15 {
		t.Errorf("xy path ends at %d", path[len(path)-1])
	}
	// Column-first: first three hops stay in row 0.
	for i := 1; i <= 3; i++ {
		if path[i]/4 != 0 {
			t.Errorf("hop %d left row 0 early: node %d", i, path[i])
		}
	}
}

func TestXYRouteTorusWraps(t *testing.T) {
	nw := Torus(5, 5)
	r, ok := nw.XYRoute(0, 4) // wrap left is 1 hop vs 4 forward
	if !ok || len(r) != 1 {
		t.Fatalf("torus wrap route len = %d, want 1", len(r))
	}
	r2, _ := nw.XYRoute(0, 24)
	if len(r2) != 2 {
		t.Errorf("torus corner route len = %d, want 2", len(r2))
	}
}

// Property: every enumerated shortest route has length Distance(src,dst)
// and is a valid walk, on a random mesh and pair.
func TestShortestRoutesProperty(t *testing.T) {
	nw := Mesh(4, 5)
	f := func(a, b uint8) bool {
		src := int(a) % nw.N
		dst := int(b) % nw.N
		for _, r := range nw.ShortestRoutes(src, dst, 50) {
			if len(r) != nw.Distance(src, dst) {
				return false
			}
			path, ok := nw.RouteEndpoints(src, r)
			if !ok || path[len(path)-1] != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: XYRoute length always equals mesh Manhattan distance.
func TestXYRouteLengthProperty(t *testing.T) {
	nw := Mesh(6, 7)
	f := func(a, b uint8) bool {
		src := int(a) % nw.N
		dst := int(b) % nw.N
		r, ok := nw.XYRoute(src, dst)
		return ok && len(r) == nw.Distance(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConnectedAllFamilies(t *testing.T) {
	for _, nw := range []*Network{
		Ring(5), Linear(6), Mesh(3, 3), Torus(3, 4), Hypercube(4),
		CompleteBinaryTree(3), BinomialTree(4), Butterfly(3), Complete(6), Star(5),
	} {
		if !nw.Connected() {
			t.Errorf("%s is disconnected", nw.Name)
		}
	}
}

// TestClosedFormDistance: a network reports a closed-form distance
// exactly when Distance over every pair leaves its BFS table unbuilt.
func TestClosedFormDistance(t *testing.T) {
	degraded, err := Mesh(3, 3).Masked([]int{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []*Network{
		Ring(5), Linear(6), Mesh(3, 3), Torus(3, 4), Hypercube(4), Complete(6), Star(5),
		Hierarchy(2, 2, 4), CompleteBinaryTree(3), BinomialTree(4), Butterfly(3),
		CubeConnectedCycles(3), degraded,
	} {
		for a := 0; a < nw.N; a++ {
			for b := 0; b < nw.N; b++ {
				nw.Distance(a, b)
			}
		}
		if built := nw.dist.Load() != nil; nw.ClosedFormDistance() == built {
			t.Errorf("%s: ClosedFormDistance %v, but Distance built the BFS table: %v", nw.Name, nw.ClosedFormDistance(), built)
		}
	}
}

func TestLinkBetween(t *testing.T) {
	nw := Mesh(2, 2)
	id, ok := nw.LinkBetween(0, 1)
	if !ok {
		t.Fatal("missing link 0-1")
	}
	l := nw.Link(id)
	if l.A != 0 || l.B != 1 {
		t.Errorf("link = %+v", l)
	}
	if _, ok := nw.LinkBetween(0, 3); ok {
		t.Error("diagonal link should not exist")
	}
}

func TestCubeConnectedCycles(t *testing.T) {
	nw := CubeConnectedCycles(3)
	if nw.N != 24 {
		t.Fatalf("ccc(3) N = %d, want 24", nw.N)
	}
	// 3-regular: 24*3/2 = 36 links.
	if nw.NumLinks() != 36 {
		t.Errorf("ccc(3) links = %d, want 36", nw.NumLinks())
	}
	for v := 0; v < nw.N; v++ {
		if nw.Degree(v) != 3 {
			t.Errorf("ccc degree(%d) = %d, want 3", v, nw.Degree(v))
		}
	}
	if !nw.Connected() {
		t.Error("ccc(3) disconnected")
	}
	// CCC(3) diameter is 6.
	if d := nw.Diameter(); d != 6 {
		t.Errorf("ccc(3) diameter = %d, want 6", d)
	}
	// Known adjacency: (v=0,p=0) links to (0,1), (0,2), (1,0).
	for _, want := range []int{1, 2, 3} {
		if _, ok := nw.LinkBetween(0, want); !ok {
			t.Errorf("ccc missing link 0-%d", want)
		}
	}
	if _, err := ByName("ccc", 3); err != nil {
		t.Errorf("ByName(ccc): %v", err)
	}
}

func TestCCCk4Regularity(t *testing.T) {
	nw := CubeConnectedCycles(4)
	if nw.N != 64 || nw.NumLinks() != 96 {
		t.Fatalf("ccc(4): N=%d links=%d", nw.N, nw.NumLinks())
	}
	// Vertex-transitive graph: every node has the same eccentricity.
	ecc := func(v int) int {
		max := 0
		for u := 0; u < nw.N; u++ {
			if d := nw.Distance(v, u); d > max {
				max = d
			}
		}
		return max
	}
	e0 := ecc(0)
	for v := 1; v < nw.N; v += 7 {
		if ecc(v) != e0 {
			t.Errorf("eccentricity(%d) = %d, want %d (vertex transitivity)", v, ecc(v), e0)
		}
	}
}
