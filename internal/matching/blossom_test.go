package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForceMax computes the true maximum matching weight (and, if
// maxCard, among maximum-cardinality matchings) by bitmask DP over
// vertex subsets: O(2^n * n^2), exact for n <= ~16.
func bruteForceMax(n int, edges []WEdge, maxCard bool) float64 {
	w := make([][]float64, n)
	has := make([][]bool, n)
	for i := range w {
		w[i] = make([]float64, n)
		has[i] = make([]bool, n)
	}
	for _, e := range edges {
		if !has[e.I][e.J] || e.Weight > w[e.I][e.J] {
			w[e.I][e.J], w[e.J][e.I] = e.Weight, e.Weight
			has[e.I][e.J], has[e.J][e.I] = true, true
		}
	}
	type val struct {
		card int
		w    float64
	}
	better := func(a, b val) bool {
		if maxCard && a.card != b.card {
			return a.card > b.card
		}
		return a.w > b.w
	}
	dp := make([]val, 1<<uint(n))
	for mask := 1; mask < 1<<uint(n); mask++ {
		// v = lowest set vertex.
		v := 0
		for mask&(1<<uint(v)) == 0 {
			v++
		}
		best := dp[mask&^(1<<uint(v))] // leave v unmatched
		for u := v + 1; u < n; u++ {
			if mask&(1<<uint(u)) != 0 && has[v][u] {
				sub := dp[mask&^(1<<uint(v))&^(1<<uint(u))]
				cand := val{sub.card + 1, sub.w + w[v][u]}
				if better(cand, best) {
					best = cand
				}
			}
		}
		dp[mask] = best
	}
	return dp[1<<uint(n)-1].w
}

func checkValidMatching(t *testing.T, n int, edges []WEdge, mate []int) {
	t.Helper()
	adjacent := make(map[[2]int]bool)
	for _, e := range edges {
		adjacent[[2]int{e.I, e.J}] = true
		adjacent[[2]int{e.J, e.I}] = true
	}
	for v := 0; v < n; v++ {
		m := mate[v]
		if m == -1 {
			continue
		}
		if mate[m] != v {
			t.Fatalf("mate not symmetric: mate[%d]=%d but mate[%d]=%d", v, m, m, mate[m])
		}
		if !adjacent[[2]int{v, m}] {
			t.Fatalf("matched pair (%d,%d) is not an edge", v, m)
		}
	}
}

func TestEmptyAndTrivial(t *testing.T) {
	if m := MaxWeightMatching(0, nil, false); len(m) != 0 {
		t.Errorf("empty graph: %v", m)
	}
	m := MaxWeightMatching(3, nil, false)
	for _, v := range m {
		if v != -1 {
			t.Errorf("no-edge graph matched something: %v", m)
		}
	}
	// Self loops ignored.
	m = MaxWeightMatching(2, []WEdge{{0, 0, 100}}, false)
	if m[0] != -1 {
		t.Errorf("self loop matched: %v", m)
	}
}

func TestSingleEdge(t *testing.T) {
	m := MaxWeightMatching(2, []WEdge{{0, 1, 1}}, false)
	if m[0] != 1 || m[1] != 0 {
		t.Errorf("single edge: %v", m)
	}
}

func TestPathChoosesMiddleOrEnds(t *testing.T) {
	// Path 0-1-2 with weights 2, 3: best is the single edge (1,2).
	m := MaxWeightMatching(3, []WEdge{{0, 1, 2}, {1, 2, 3}}, false)
	if m[1] != 2 || m[0] != -1 {
		t.Errorf("path: %v", m)
	}
	// With maxCardinality unchanged: still only one edge fits.
	m = MaxWeightMatching(3, []WEdge{{0, 1, 2}, {1, 2, 3}}, true)
	if m[1] != 2 {
		t.Errorf("path maxcard: %v", m)
	}
}

func TestNegativeWeightAvoidedUnlessForced(t *testing.T) {
	edges := []WEdge{{0, 1, 2}, {1, 2, -1}, {2, 3, 2}}
	m := MaxWeightMatching(4, edges, false)
	if m[0] != 1 || m[2] != 3 {
		t.Errorf("positive pair not chosen: %v", m)
	}
	// Force cardinality with a negative middle edge only.
	edges = []WEdge{{0, 1, -2}}
	m = MaxWeightMatching(2, edges, false)
	if m[0] != -1 {
		t.Errorf("negative edge used without maxcard: %v", m)
	}
	m = MaxWeightMatching(2, edges, true)
	if m[0] != 1 {
		t.Errorf("negative edge not used with maxcard: %v", m)
	}
}

func TestTriangleBlossom(t *testing.T) {
	// Odd cycle forces blossom handling: triangle plus pendant.
	edges := []WEdge{{0, 1, 6}, {1, 2, 6}, {0, 2, 6}, {2, 3, 5}}
	m := MaxWeightMatching(4, edges, false)
	checkValidMatching(t, 4, edges, m)
	if got, want := MatchingWeight(m, edges), 11.0; got != want {
		t.Errorf("triangle weight = %g, want %g", got, want)
	}
}

// The classic tricky cases from the reference implementation's test
// suite: nested S-blossoms, relabeling, and expansion.
func TestSBlossomRelabel(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []WEdge
	}{
		{"s-blossom", 4, []WEdge{{0, 1, 8}, {0, 2, 9}, {1, 2, 10}, {2, 3, 7}}},
		{"s-blossom-aug", 6, []WEdge{{0, 1, 8}, {0, 2, 9}, {1, 2, 10}, {2, 3, 7}, {0, 5, 5}, {3, 4, 6}}},
		{"t-blossom-A", 6, []WEdge{{0, 1, 9}, {0, 2, 8}, {1, 2, 10}, {0, 3, 5}, {3, 4, 4}, {0, 5, 3}}},
		{"t-blossom-B", 6, []WEdge{{0, 1, 9}, {0, 2, 8}, {1, 2, 10}, {0, 3, 5}, {3, 4, 3}, {0, 5, 4}}},
		{"t-blossom-C", 6, []WEdge{{0, 1, 9}, {0, 2, 8}, {1, 2, 10}, {0, 3, 5}, {3, 4, 3}, {2, 5, 4}}},
		{"nested-s", 8, []WEdge{{0, 1, 9}, {0, 2, 9}, {1, 2, 10}, {1, 3, 8}, {2, 4, 8}, {3, 4, 10}, {4, 5, 6}}},
		{"s-to-t-relabel", 8, []WEdge{{0, 1, 10}, {0, 6, 10}, {1, 2, 12}, {2, 3, 20}, {2, 4, 20}, {3, 4, 25}, {4, 5, 10}, {5, 6, 10}, {6, 7, 8}}},
		{"nasty-expand", 10, []WEdge{{0, 1, 45}, {0, 4, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 50}, {0, 5, 30}, {2, 8, 35}, {3, 7, 35}, {4, 6, 26}, {8, 9, 5}}},
		{"again-expand", 10, []WEdge{{0, 1, 45}, {0, 4, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 50}, {0, 5, 30}, {2, 8, 35}, {3, 7, 26}, {4, 6, 40}, {8, 9, 5}}},
		{"expand-relabel", 10, []WEdge{{0, 1, 50}, {0, 4, 45}, {0, 5, 30}, {1, 2, 45}, {2, 3, 50}, {3, 4, 45}, {3, 7, 35}, {4, 6, 35}, {2, 8, 26}, {8, 9, 5}}},
		{"expand-t-blossom", 11, []WEdge{{0, 1, 45}, {0, 6, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 95}, {3, 5, 94}, {4, 5, 94}, {5, 6, 50}, {0, 7, 30}, {8, 2, 35}, {4, 10, 36}, {6, 9, 26}, {10, 11, 5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			for _, e := range tc.edges {
				if e.I >= n {
					n = e.I + 1
				}
				if e.J >= n {
					n = e.J + 1
				}
			}
			m := MaxWeightMatching(n, tc.edges, false)
			checkValidMatching(t, n, tc.edges, m)
			got := MatchingWeight(m, tc.edges)
			want := bruteForceMax(n, tc.edges, false)
			if got != want {
				t.Errorf("weight = %g, want %g (mate %v)", got, want, m)
			}
		})
	}
}

func randGraph(r *rand.Rand, n, maxEdges, maxW int) []WEdge {
	if c := n * (n - 1) / 2; maxEdges > c {
		maxEdges = c
	}
	ne := r.Intn(maxEdges + 1)
	seen := make(map[[2]int]bool)
	var edges []WEdge
	for len(edges) < ne {
		i := r.Intn(n)
		j := r.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		edges = append(edges, WEdge{i, j, float64(r.Intn(maxW) + 1)})
	}
	return edges
}

func TestRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(9) // up to 10 vertices
		edges := randGraph(r, n, n*(n-1)/2, 20)
		for _, mc := range []bool{false, true} {
			m := MaxWeightMatching(n, edges, mc)
			checkValidMatching(t, n, edges, m)
			got := MatchingWeight(m, edges)
			want := bruteForceMax(n, edges, mc)
			if got != want {
				t.Fatalf("trial %d (n=%d maxcard=%v): weight %g, want %g\nedges: %v\nmate: %v",
					trial, n, mc, got, want, edges, m)
			}
			if mc {
				// Cardinality must also be maximum.
				bigM := MaxWeightMatching(n, unitWeights(edges), true)
				if Size2(m) != Size2(bigM) {
					t.Fatalf("trial %d: maxcard matching has cardinality %d, want %d",
						trial, Size2(m), Size2(bigM))
				}
			}
		}
	}
}

func unitWeights(edges []WEdge) []WEdge {
	out := make([]WEdge, len(edges))
	for i, e := range edges {
		out[i] = WEdge{e.I, e.J, 1}
	}
	return out
}

// Size2 counts matched pairs.
func Size2(mate []int) int {
	n := 0
	for v, m := range mate {
		if m > v {
			n++
		}
	}
	return n
}

// Property: matching weight is invariant under vertex relabeling.
func TestRelabelInvarianceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 3 + rr.Intn(7)
		edges := randGraph(rr, n, n*2, 10)
		perm := r.Perm(n)
		relabeled := make([]WEdge, len(edges))
		for i, e := range edges {
			relabeled[i] = WEdge{perm[e.I], perm[e.J], e.Weight}
		}
		w1 := MatchingWeight(MaxWeightMatching(n, edges, false), edges)
		w2 := MatchingWeight(MaxWeightMatching(n, relabeled, false), relabeled)
		return w1 == w2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLargeRingMatching(t *testing.T) {
	// Even cycle with uniform weights: perfect matching of n/2 edges.
	n := 200
	var edges []WEdge
	for i := 0; i < n; i++ {
		edges = append(edges, WEdge{i, (i + 1) % n, 1})
	}
	m := MaxWeightMatching(n, edges, false)
	checkValidMatching(t, n, edges, m)
	if got := MatchingWeight(m, edges); got != float64(n/2) {
		t.Errorf("ring matching weight = %g, want %d", got, n/2)
	}
}

func TestMatchingWeightParallelEdges(t *testing.T) {
	edges := []WEdge{{0, 1, 3}, {0, 1, 7}}
	m := MaxWeightMatching(2, edges, false)
	if got := MatchingWeight(m, edges); got != 7 {
		t.Errorf("parallel edge weight = %g, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	MaxWeightMatching(2, []WEdge{{0, 5, 1}}, false)
}

// TestUnusedBlossomIdsAreBlank checks the premise that lets solve skip
// its per-stage scans over blossom ids n..2n-1 when none is live: an
// id on the free list has no base, children or best-edge list, so the
// scans could not touch it. The differential tests cannot see the skip,
// because leaving a zero-dual blossom unexpanded keeps the matching
// optimal. Dense random graphs form (and expand) many blossoms.
func TestUnusedBlossomIdsAreBlank(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	live := 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + r.Intn(12)
		s := newBlossomState(n, randGraph(r, n, n*(n-1)/2, 9), trial%2 == 0)
		s.solve()
		if len(s.unusedBlossoms) < n {
			live++
		}
		for _, b := range s.unusedBlossoms {
			if s.blossomBase[b] != -1 || s.blossomChilds[b] != nil || s.blossomBestEdges[b] != nil {
				t.Fatalf("trial %d: free blossom id %d has base %d, %d children, best edges %v",
					trial, b, s.blossomBase[b], len(s.blossomChilds[b]), s.blossomBestEdges[b])
			}
		}
	}
	if live == 0 {
		t.Fatal("no trial ended with a live blossom; the premise was never exercised")
	}
}
