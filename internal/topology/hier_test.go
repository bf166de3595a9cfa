package topology

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestHierarchyShape(t *testing.T) {
	nw := Hierarchy(2, 3, 4)
	if nw.N != 24 {
		t.Fatalf("hier(2x3x4) N = %d, want 24", nw.N)
	}
	if nw.Kind != "hier" || nw.Name != "hier(2x3x4)" {
		t.Errorf("kind=%q name=%q", nw.Kind, nw.Name)
	}
	if got := nw.HierLevels(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("HierLevels = %v", got)
	}
	if !nw.Connected() {
		t.Error("hier(2x3x4) not connected")
	}
	// Innermost groups are complete: 4 PEs -> 6 links per group, 6 groups.
	// Depth-1: 3 NUMA reps per socket complete -> 3 links per socket, 2 sockets.
	// Depth-0: 2 socket reps -> 1 link.
	if want := 6*6 + 3*2 + 1; nw.NumLinks() != want {
		t.Errorf("NumLinks = %d, want %d", nw.NumLinks(), want)
	}
	// Leaf group {4,5,6,7} is complete.
	for _, b := range []int{5, 6, 7} {
		if _, ok := nw.LinkBetween(4, b); !ok {
			t.Errorf("missing leaf link 4-%d", b)
		}
	}
	// Non-representatives have no cross-group links.
	if _, ok := nw.LinkBetween(5, 8); ok {
		t.Error("unexpected link 5-8 across NUMA boundary")
	}
	// Representatives 0 and 12 carry the socket-level link.
	if _, ok := nw.LinkBetween(0, 12); !ok {
		t.Error("missing socket link 0-12")
	}
}

func TestHierarchyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"one level":    func() { Hierarchy(8) },
		"fanout 1":     func() { Hierarchy(2, 1, 2) },
		"fanout 0":     func() { Hierarchy(0, 4) },
		"too deep":     func() { Hierarchy(2, 2, 2, 2, 2, 2, 2, 2, 2) },
		"too many PEs": func() { Hierarchy(1<<11, 1<<11) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		})
	}
}

// hierBFSShapes are small enough for an all-pairs BFS referee: the
// benchmark's 512-PE shape plus deep and odd-fanout ones whose digit
// fields do not fill their bit widths.
var hierBFSShapes = [][]int{
	{2, 2}, {3, 2}, {2, 3}, {4, 4},
	{2, 2, 2}, {2, 3, 4}, {4, 3, 2}, {3, 3, 3},
	{2, 2, 2, 2}, {2, 2, 3, 2},
	{4, 4, 4, 8}, {3, 5, 3}, {2, 2, 2, 2, 2, 2, 2, 2}, {5, 2, 7},
}

// TestHierDistanceVsBFS referees the analytic hier distance against plain
// BFS over the constructed link graph, over a spread of shapes, and both
// table-driven queries against the division-based formulas.
func TestHierDistanceVsBFS(t *testing.T) {
	for _, fanouts := range hierBFSShapes {
		nw := Hierarchy(fanouts...)
		ref := newNetwork("refhier", nw.Name, nw.N, fanouts...)
		for _, l := range nw.Links() {
			ref.addLink(l.A, l.B)
		}
		ref.finish()
		for a := 0; a < nw.N; a++ {
			for b := 0; b < nw.N; b++ {
				if got, want := nw.Distance(a, b), ref.Distance(a, b); got != want {
					t.Fatalf("hier%v Distance(%d,%d) = %d, BFS says %d", fanouts, a, b, got, want)
				}
				if got, want := nw.Distance(a, b), refHierDistance(fanouts, a, b); got != want {
					t.Fatalf("hier%v Distance(%d,%d) = %d, division referee says %d", fanouts, a, b, got, want)
				}
				if got, want := nw.HierCrossLevel(a, b), refHierCrossLevel(fanouts, a, b); got != want {
					t.Fatalf("hier%v HierCrossLevel(%d,%d) = %d, division referee says %d", fanouts, a, b, got, want)
				}
			}
		}
	}
}

// refHierDistance and refHierCrossLevel are the division-based formulas
// the per-PE digit tables replaced, kept as referees: dc is the deepest
// depth whose groups still contain both endpoints, and climb(x) counts
// the depth steps below dc+1 at which x is not its group's
// representative.
func refHierDistance(fanouts []int, a, b int) int {
	if a == b {
		return 0
	}
	sizes := hierSizes(fanouts)
	dc := 0
	for d := 1; d < len(sizes); d++ {
		if a/sizes[d] != b/sizes[d] {
			break
		}
		dc = d
	}
	climb := func(x int) int {
		hops := 0
		for d := len(sizes) - 1; d > dc+1; d-- {
			if x%sizes[d-1] != x%sizes[d] {
				hops++
			}
		}
		return hops
	}
	return climb(a) + climb(b) + 1
}

func refHierCrossLevel(fanouts []int, a, b int) int {
	if a == b {
		return 0
	}
	sizes := hierSizes(fanouts)
	for d := len(fanouts); d >= 1; d-- {
		if a/sizes[d-1] == b/sizes[d-1] {
			return len(fanouts) - d + 1
		}
	}
	return len(fanouts)
}

// TestHierTablesAtLimits checks the digit tables against the division
// referees on seeded sampled pairs at the size and depth caps, where
// the packed code is widest. Building those machines' link graphs is
// out of reach (a 2^19-PE complete leaf group), so the test attaches
// the tables to a bare network of the right shape.
func TestHierTablesAtLimits(t *testing.T) {
	for _, fanouts := range [][]int{
		{2, 1 << 19},
		{1 << 10, 1 << 10},
		{2, 2, 2, 2, 2, 2, 4, 4096},
		{5, 5, 5, 5, 5, 5, 5, 13}, // 25 code bits, the odd-fanout worst case
	} {
		sizes := hierSizes(fanouts)
		n := sizes[0]
		if n > hierMaxProcs || len(fanouts) > hierMaxDepth {
			t.Fatalf("hier%v exceeds the caps", fanouts)
		}
		nw := &Network{Kind: "hier", N: n, Dims: fanouts, hier: newHierTables(fanouts, sizes, n)}
		r := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 20000; i++ {
			a := r.Intn(n)
			// Draw b inside a's depth-d group for a random d, so every
			// first-differing depth is exercised, not just depth 1.
			size := sizes[r.Intn(len(sizes))]
			b := a - a%size + r.Intn(size)
			if i%2 == 1 {
				a, b = b, a
			}
			if got, want := nw.hierDistance(a, b), refHierDistance(fanouts, a, b); got != want {
				t.Fatalf("hier%v Distance(%d,%d) = %d, referee says %d", fanouts, a, b, got, want)
			}
			if got, want := nw.HierCrossLevel(a, b), refHierCrossLevel(fanouts, a, b); got != want {
				t.Fatalf("hier%v HierCrossLevel(%d,%d) = %d, referee says %d", fanouts, a, b, got, want)
			}
		}
		// The last PE has every digit at its maximum: the widest code.
		if got, want := nw.hierDistance(0, n-1), refHierDistance(fanouts, 0, n-1); got != want {
			t.Fatalf("hier%v Distance(0,%d) = %d, referee says %d", fanouts, n-1, got, want)
		}
	}
}

func TestHierCrossLevel(t *testing.T) {
	nw := Hierarchy(2, 3, 4) // sizes: machine 24, socket 12, NUMA 4
	for _, tc := range []struct{ a, b, want int }{
		{5, 5, 0},   // same PE
		{4, 7, 1},   // same NUMA node
		{0, 5, 2},   // same socket, different NUMA
		{3, 23, 3},  // different sockets
		{12, 13, 1}, // same NUMA in the second socket
	} {
		if got := nw.HierCrossLevel(tc.a, tc.b); got != tc.want {
			t.Errorf("HierCrossLevel(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("HierCrossLevel on non-hier did not panic")
		}
	}()
	Ring(4).HierCrossLevel(0, 1)
}

// Crossing a level-l boundary costs at most 2l-1 hops: climb each side's
// representative chain (<= l-1 hops each) plus the one sibling link.
func TestHierDistanceBound(t *testing.T) {
	nw := Hierarchy(2, 3, 4)
	for a := 0; a < nw.N; a++ {
		for b := 0; b < nw.N; b++ {
			l := nw.HierCrossLevel(a, b)
			d := nw.Distance(a, b)
			if l == 0 {
				if d != 0 {
					t.Fatalf("Distance(%d,%d) = %d with cross level 0", a, b, d)
				}
				continue
			}
			if d < 1 || d > 2*l-1 {
				t.Fatalf("Distance(%d,%d) = %d outside [1, %d] for cross level %d", a, b, d, 2*l-1, l)
			}
		}
	}
}

func TestHierByNameAndSpec(t *testing.T) {
	nw, err := ByName("hier", 2, 2, 4)
	if err != nil {
		t.Fatalf("ByName(hier): %v", err)
	}
	if nw.N != 16 {
		t.Errorf("ByName(hier,2,2,4) N = %d, want 16", nw.N)
	}
	nw, err = ParseSpec("hier:4,4,4,8")
	if err != nil {
		t.Fatalf("ParseSpec(hier:4,4,4,8): %v", err)
	}
	if nw.N != 512 || nw.Name != "hier(4x4x4x8)" {
		t.Errorf("ParseSpec hier: N=%d name=%q", nw.N, nw.Name)
	}
	// Kinds must include hier and stay sorted (PR-4 convention).
	kinds := Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Errorf("Kinds() not sorted: %v", kinds)
	}
	found := false
	for _, k := range kinds {
		if k == "hier" {
			found = true
		}
	}
	if !found {
		t.Errorf("Kinds() missing hier: %v", kinds)
	}
	// Bad level specs must error (not panic) naming the offending level
	// and the spec, matching the PR-4 error-message convention.
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"hier:8", []string{"hier needs 2..8 levels", `"hier:8"`}},
		{"hier:2,1,4", []string{"level 2 fanout 1", `"hier:2,1,4"`}},
		{"hier:4,0", []string{"level 2 fanout 0", `"hier:4,0"`}},
		{"hier:2,2,2,2,2,2,2,2,2", []string{"hier needs 2..8 levels, got 9", `"hier:2,2,2,2,2,2,2,2,2"`}},
		{"hier:2048,2048", []string{"exceeds", `"hier:2048,2048"`}},
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
}

// Hier networks, like every family, must survive the generic degraded
// view: masking a representative forces BFS distances.
func TestHierMasked(t *testing.T) {
	nw := Hierarchy(2, 2, 2)
	m, err := nw.Masked([]int{0}, nil)
	if err != nil {
		t.Fatalf("Masked: %v", err)
	}
	if m.NumLive() != nw.N-1 {
		t.Fatalf("NumLive = %d", m.NumLive())
	}
	// With representative 0 dead, 1 must reroute via longer paths or
	// report unreachability honestly; Distance must not panic.
	for a := 0; a < nw.N; a++ {
		for b := 0; b < nw.N; b++ {
			m.Distance(a, b)
		}
	}
}
