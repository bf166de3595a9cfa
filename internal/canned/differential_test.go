package canned

// The detect referee: the map-based detectors this package shipped
// before detection moved onto the CSR, kept verbatim (helpers renamed
// with a ref prefix). Every Detection — family, params and canonical
// labeling — from Detect must equal refDetect's, so mappings built on
// the canonical labeling keep their fingerprints.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// fromPairs builds a one-phase, unit-weight task graph with the given
// undirected edges.
func fromPairs(n int, pairs [][2]int) *graph.TaskGraph {
	g := graph.New("pairs", n)
	p := g.AddCommPhase("c")
	for _, e := range pairs {
		g.AddEdge(p, e[0], e[1], 1)
	}
	return g
}

// relabeled returns g's collapsed structure under a random task
// permutation, so CSR rows come in a different neighbor order.
func relabeled(r *rand.Rand, g *graph.TaskGraph) (int, [][2]int) {
	perm := r.Perm(g.NumTasks)
	var pairs [][2]int
	for _, e := range g.CollapsedEntries() {
		pairs = append(pairs, [2]int{perm[e.A], perm[e.B]})
	}
	return g.NumTasks, pairs
}

// perturbed returns pairs with one edge dropped and, separately, pairs
// with one non-edge added; either may be nil when no such edge exists.
func perturbed(r *rand.Rand, n int, pairs [][2]int) (dropped, added [][2]int) {
	if len(pairs) > 0 {
		i := r.Intn(len(pairs))
		dropped = append(append(dropped, pairs[:i]...), pairs[i+1:]...)
	}
	has := make(map[[2]int]bool, 2*len(pairs))
	for _, e := range pairs {
		has[e] = true
		has[[2]int{e[1], e[0]}] = true
	}
	for try := 0; try < 4*n*n && n > 1; try++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b && !has[[2]int{a, b}] {
			added = append(append(added, pairs...), [2]int{a, b})
			break
		}
	}
	return dropped, added
}

func requireSameDetection(t *testing.T, what string, g *graph.TaskGraph) {
	t.Helper()
	if got, want := Detect(g), refDetect(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Detect = %s, referee %s", what, describe(got), describe(want))
	}
}

func describe(d *Detection) string {
	if d == nil {
		return "nil"
	}
	return fmt.Sprintf("%s canon %v", d, d.Canon)
}

func TestDetectMatchesReferee(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		r := gen.Rand(seed)
		g := gen.Nameable(r)
		requireSameDetection(t, g.Name, g)
		n, pairs := relabeled(r, g)
		requireSameDetection(t, g.Name+" relabeled", fromPairs(n, pairs))
		dropped, added := perturbed(r, n, pairs)
		if dropped != nil {
			requireSameDetection(t, g.Name+" minus an edge", fromPairs(n, dropped))
		}
		if added != nil {
			requireSameDetection(t, g.Name+" plus an edge", fromPairs(n, added))
		}
		rg := gen.TaskGraph(r, gen.DefaultSize(r))
		requireSameDetection(t, rg.Name, rg)
	}
	for _, w := range workload.All() {
		c, err := w.Compile(nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		requireSameDetection(t, "workload "+w.Name, c.Graph)
	}
	r := gen.Rand(1)
	for _, nw := range []*topology.Network{
		topology.Torus(4, 4), // the 4-cube
		topology.Torus(3, 5),
		topology.Torus(6, 9),
		topology.Mesh(7, 3),
		topology.Hypercube(7),
		topology.BinomialTree(8),
		topology.CompleteBinaryTree(6),
		topology.Star(9),
		topology.Complete(6),
		topology.Butterfly(3),
	} {
		g := taskGraphOf(nw)
		requireSameDetection(t, nw.Name, g)
		for i := 0; i < 5; i++ {
			n, pairs := relabeled(r, g)
			requireSameDetection(t, nw.Name+" relabeled", fromPairs(n, pairs))
		}
	}
}

// FuzzDetect decodes the input into an edge list over at most 64 tasks
// (first byte: task count; then one byte per endpoint) and requires
// Detect to match the referee without panicking. Registered in
// `make fuzz`.
func FuzzDetect(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		r := gen.Rand(seed)
		n, pairs := relabeled(r, gen.Nameable(r))
		data := []byte{byte(n - 1)}
		for _, e := range pairs {
			data = append(data, byte(e[0]), byte(e[1]))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		var pairs [][2]int
		for i := 1; i+1 < len(data); i += 2 {
			pairs = append(pairs, [2]int{int(data[i]) % n, int(data[i+1]) % n})
		}
		requireSameDetection(t, "fuzzed graph", fromPairs(n, pairs))
	})
}

// refDetect recognizes the collapsed structure of g as one of the known
// families, trying the most specific families first. It returns nil if
// no family matches.
func refDetect(g *graph.TaskGraph) *Detection {
	adj := refUndirectedSets(g)
	if d := refDetectHypercube(adj); d != nil {
		return d
	}
	if d := refDetectGrid(adj); d != nil {
		return d
	}
	if d := refDetectTorus(adj); d != nil {
		return d
	}
	if d := refDetectRing(adj); d != nil {
		return d
	}
	if d := refDetectLinear(adj); d != nil {
		return d
	}
	if d := refDetectBinomial(adj); d != nil {
		return d
	}
	if d := refDetectCBTree(adj); d != nil {
		return d
	}
	return nil
}

// refUndirectedSets returns the collapsed adjacency as neighbor sets.
func refUndirectedSets(g *graph.TaskGraph) []map[int]bool {
	adj := make([]map[int]bool, g.NumTasks)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	csr := g.CSR()
	for v := 0; v < g.NumTasks; v++ {
		for _, u := range csr.Neighbors(v) {
			adj[v][int(u)] = true
		}
	}
	return adj
}

func refConnected(adj []map[int]bool) bool {
	n := len(adj)
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	seen[0] = true
	count := 1
	for q := []int{0}; len(q) > 0; {
		v := q[0]
		q = q[1:]
		for u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				q = append(q, u)
			}
		}
	}
	return count == n
}

func refEdgeCount(adj []map[int]bool) int {
	n := 0
	for _, s := range adj {
		n += len(s)
	}
	return n / 2
}

func refDetectRing(adj []map[int]bool) *Detection {
	n := len(adj)
	if n < 3 || !refConnected(adj) {
		return nil
	}
	for _, s := range adj {
		if len(s) != 2 {
			return nil
		}
	}
	// Walk the cycle from 0, taking the smallest eligible neighbor at
	// every step — the first step has two candidates and map iteration
	// order must not pick the orientation, or the canonicalization (and
	// every mapping built on it) changes between runs.
	canon := make([]int, n)
	prev, cur := -1, 0
	for i := 0; i < n; i++ {
		canon[cur] = i
		next := -1
		for u := range adj[cur] {
			if u != prev && (next == -1 || u < next) {
				next = u
			}
		}
		prev, cur = cur, next
	}
	if cur != 0 {
		return nil
	}
	return &Detection{Family: FamilyRing, Params: []int{n}, Canon: canon}
}

func refDetectLinear(adj []map[int]bool) *Detection {
	n := len(adj)
	if n < 2 || !refConnected(adj) || refEdgeCount(adj) != n-1 {
		return nil
	}
	ends := 0
	start := -1
	for v, s := range adj {
		switch len(s) {
		case 1:
			ends++
			if start == -1 {
				start = v
			}
		case 2:
		default:
			return nil
		}
	}
	if ends != 2 {
		return nil
	}
	canon := make([]int, n)
	prev, cur := -1, start
	for i := 0; i < n; i++ {
		canon[cur] = i
		next := -1
		for u := range adj[cur] {
			if u != prev {
				next = u
			}
		}
		prev, cur = cur, next
	}
	return &Detection{Family: FamilyLinear, Params: []int{n}, Canon: canon}
}

// refDetectGrid coordinatizes a 2-D mesh from corner distances: with c0 a
// corner at (0,0) and c1 the nearest other corner at (0, C-1), Manhattan
// distances give r = (d0+d1-(C-1))/2 and c = (d0-d1+(C-1))/2.
func refDetectGrid(adj []map[int]bool) *Detection {
	n := len(adj)
	if n < 4 || !refConnected(adj) {
		return nil
	}
	var corners []int
	for v, s := range adj {
		switch len(s) {
		case 2:
			corners = append(corners, v)
		case 3, 4:
		default:
			return nil
		}
	}
	// A proper R x C grid (R, C >= 2, not a cycle) has exactly 4
	// degree-2 corners; 2x2 is handled as a hypercube before this.
	if len(corners) != 4 {
		return nil
	}
	sort.Ints(corners)
	c0 := corners[0]
	d0 := refBfsDist(adj, c0)
	// Nearest other corner defines the column count.
	c1, best := -1, 1<<30
	for _, c := range corners[1:] {
		if d0[c] < best {
			c1, best = c, d0[c]
		}
	}
	cols := best + 1
	if cols < 2 || n%cols != 0 {
		return nil
	}
	rows := n / cols
	d1 := refBfsDist(adj, c1)
	coord := make([]int, n)
	for v := range coord {
		sum := d0[v] + d1[v] - (cols - 1)
		diff := d0[v] - d1[v] + (cols - 1)
		if sum < 0 || sum%2 != 0 || diff < 0 || diff%2 != 0 {
			return nil
		}
		r, c := sum/2, diff/2
		if r >= rows || c >= cols {
			return nil
		}
		coord[v] = r*cols + c
	}
	if !refVerifyGrid(adj, coord, rows, cols) {
		return nil
	}
	return &Detection{Family: FamilyGrid, Params: []int{rows, cols}, Canon: coord}
}

func refBfsDist(adj []map[int]bool, src int) []int {
	d := make([]int, len(adj))
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	for q := []int{src}; len(q) > 0; {
		v := q[0]
		q = q[1:]
		for u := range adj[v] {
			if d[u] == -1 {
				d[u] = d[v] + 1
				q = append(q, u)
			}
		}
	}
	return d
}

func refVerifyGrid(adj []map[int]bool, coord []int, rows, cols int) bool {
	pos := make([]int, rows*cols)
	for i := range pos {
		pos[i] = -1
	}
	for v, c := range coord {
		if c < 0 || c >= rows*cols || pos[c] != -1 {
			return false
		}
		pos[c] = v
	}
	want := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := pos[r*cols+c]
			deg := 0
			if c+1 < cols {
				if !adj[v][pos[r*cols+c+1]] {
					return false
				}
				deg++
			}
			if r+1 < rows {
				if !adj[v][pos[(r+1)*cols+c]] {
					return false
				}
				deg++
			}
			want += deg
		}
	}
	return refEdgeCount(adj) == want
}

// refDetectTorus coordinatizes a 2-D torus with both extents >= 5 (smaller
// extents create chords/multi-edges that alias other families: a 4x4
// torus is the 4-cube, a 3-extent torus has triangles). The walk from a
// start node follows "straight" continuations: in a chord-free torus,
// the straight neighbor u of cur (coming from prev) is the unique
// neighbor with exactly one common neighbor with prev (the turns share
// two).
func refDetectTorus(adj []map[int]bool) *Detection {
	n := len(adj)
	if n < 25 || !refConnected(adj) {
		return nil
	}
	for _, s := range adj {
		if len(s) != 4 {
			return nil
		}
	}
	if refEdgeCount(adj) != 2*n {
		return nil
	}
	straight := func(prev, cur int) int {
		out := -1
		for u := range adj[cur] {
			if u == prev {
				continue
			}
			common := 0
			for w := range adj[u] {
				if adj[prev][w] {
					common++
				}
			}
			if common == 1 {
				if out != -1 {
					return -1 // ambiguous: not a chord-free torus
				}
				out = u
			}
		}
		return out
	}
	// Walk a row from 0 through an arbitrary first neighbor.
	first := -1
	for u := range adj[0] {
		if first == -1 || u < first {
			first = u
		}
	}
	row := []int{0, first}
	for {
		nxt := straight(row[len(row)-2], row[len(row)-1])
		if nxt == -1 {
			return nil
		}
		if nxt == 0 {
			break
		}
		row = append(row, nxt)
		if len(row) > n {
			return nil
		}
	}
	cols := len(row)
	if cols < 5 || n%cols != 0 {
		return nil
	}
	rows := n / cols
	if rows < 5 {
		return nil
	}
	// Pick the column direction: a neighbor of 0 not in the row.
	inRow := make(map[int]bool, cols)
	for _, v := range row {
		inRow[v] = true
	}
	// Take the smallest such neighbor so the vertical orientation (and
	// with it the canonical labeling) is the same on every run; an
	// arbitrary map pick mirrored the torus between executions, the same
	// defect PR 5 fixed in refDetectRing.
	down := -1
	for u := range adj[0] {
		if !inRow[u] && (down == -1 || u < down) {
			down = u
		}
	}
	if down == -1 {
		return nil
	}
	coord := make([]int, n)
	for i := range coord {
		coord[i] = -1
	}
	cur := row
	for i, v := range cur {
		coord[v] = i
	}
	prevRow := make([]int, cols)
	for i := range prevRow {
		prevRow[i] = -1 // sentinel: row -1 unknown; use straight from row r-1
	}
	for r := 1; r < rows; r++ {
		next := make([]int, cols)
		for i, v := range cur {
			var cand int
			if r == 1 {
				if i == 0 {
					cand = down
				} else {
					// The neighbor of cur[i] adjacent to next[i-1],
					// unvisited.
					cand = -1
					for u := range adj[v] {
						if coord[u] == -1 && adj[u][next[i-1]] {
							if cand != -1 {
								return nil
							}
							cand = u
						}
					}
				}
			} else {
				cand = straight(prevRow[i], v)
			}
			if cand == -1 || coord[cand] != -1 {
				return nil
			}
			next[i] = cand
			coord[cand] = r*cols + i
		}
		prevRow = cur
		cur = next
	}
	if !refVerifyTorus(adj, coord, rows, cols) {
		return nil
	}
	return &Detection{Family: FamilyTorus, Params: []int{rows, cols}, Canon: coord}
}

func refVerifyTorus(adj []map[int]bool, coord []int, rows, cols int) bool {
	pos := make([]int, rows*cols)
	for i := range pos {
		pos[i] = -1
	}
	for v, c := range coord {
		if c < 0 || c >= rows*cols || pos[c] != -1 {
			return false
		}
		pos[c] = v
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := pos[r*cols+c]
			if !adj[v][pos[r*cols+(c+1)%cols]] {
				return false
			}
			if !adj[v][pos[((r+1)%rows)*cols+c]] {
				return false
			}
		}
	}
	return true
}

func refDetectHypercube(adj []map[int]bool) *Detection {
	n := len(adj)
	d := 0
	for 1<<uint(d) < n {
		d++
	}
	if n < 2 || 1<<uint(d) != n || !refConnected(adj) {
		return nil
	}
	for _, s := range adj {
		if len(s) != d {
			return nil
		}
	}
	if refEdgeCount(adj) != n*d/2 {
		return nil
	}
	// Label node 0 as bitstring 0 and its neighbors as the unit
	// bitmasks. Any node u at BFS distance >= 2 from node 0 has (in a
	// true hypercube) at least two neighbors x, y one layer closer, and
	// its label must be label[x] | label[y] (x and y are u with one of
	// u's set bits cleared). Verification afterwards rejects impostors.
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	dist := refBfsDist(adj, 0)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
	label[0] = 0
	bit := 1
	var units []int
	for u := range adj[0] {
		units = append(units, u)
	}
	sort.Ints(units)
	for _, u := range units {
		label[u] = bit
		bit <<= 1
	}
	for _, u := range order {
		if dist[u] < 2 {
			continue
		}
		x, y := -1, -1
		for w := range adj[u] {
			if dist[w] == dist[u]-1 && label[w] != -1 {
				if x == -1 {
					x = w
				} else {
					y = w
					break
				}
			}
		}
		if y == -1 {
			return nil
		}
		label[u] = label[x] | label[y]
	}
	seen := make([]bool, n)
	for _, l := range label {
		if l < 0 || l >= n || seen[l] {
			return nil
		}
		seen[l] = true
	}
	// Final verification: adjacency iff Hamming distance 1.
	for v, s := range adj {
		for u := range s {
			if refPopcount(label[v]^label[u]) != 1 {
				return nil
			}
		}
	}
	return &Detection{Family: FamilyHypercube, Params: []int{d}, Canon: label}
}

func refPopcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// refDetectBinomial checks for the binomial tree B_k via AHU canonical
// encoding rooted at the unique maximum-degree vertex.
func refDetectBinomial(adj []map[int]bool) *Detection {
	n := len(adj)
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	if n < 2 || 1<<uint(k) != n || refEdgeCount(adj) != n-1 || !refConnected(adj) {
		return nil
	}
	root := refMaxDegreeVertex(adj)
	if len(adj[root]) != k {
		return nil
	}
	canon := make([]int, n)
	for i := range canon {
		canon[i] = -1
	}
	if !refAssignBinomial(adj, root, -1, k, 0, canon) {
		return nil
	}
	return &Detection{Family: FamilyBinomial, Params: []int{k}, Canon: canon}
}

// refAssignBinomial labels the subtree rooted at v (coming from parent) as
// the binomial tree B_order with root label base; children must be roots
// of B_0..B_{order-1}.
func refAssignBinomial(adj []map[int]bool, v, parent, order, base int, canon []int) bool {
	canon[v] = base
	var kids []int
	for u := range adj[v] {
		if u != parent {
			kids = append(kids, u)
		}
	}
	if len(kids) != order {
		return false
	}
	// Sort children by subtree size = 2^their order; match each to a
	// distinct order 0..order-1 by degree heuristic then verify.
	sort.Slice(kids, func(i, j int) bool {
		return refSubtreeSize(adj, kids[i], v) < refSubtreeSize(adj, kids[j], v)
	})
	for i, kid := range kids {
		if refSubtreeSize(adj, kid, v) != 1<<uint(i) {
			return false
		}
		if !refAssignBinomial(adj, kid, v, i, base+(1<<uint(i)), canon) {
			return false
		}
	}
	return true
}

func refSubtreeSize(adj []map[int]bool, v, parent int) int {
	n := 1
	for u := range adj[v] {
		if u != parent {
			n += refSubtreeSize(adj, u, v)
		}
	}
	return n
}

func refMaxDegreeVertex(adj []map[int]bool) int {
	best, bd := 0, -1
	for v, s := range adj {
		if len(s) > bd {
			best, bd = v, len(s)
		}
	}
	return best
}

// refDetectCBTree checks for a complete binary tree and labels it in heap
// order.
func refDetectCBTree(adj []map[int]bool) *Detection {
	n := len(adj)
	d := 0
	for 1<<uint(d+1)-1 < n {
		d++
	}
	if n < 3 || 1<<uint(d+1)-1 != n || refEdgeCount(adj) != n-1 || !refConnected(adj) {
		return nil
	}
	// Root: the unique degree-2 vertex at distance d from every leaf;
	// for d >= 1 the root has degree 2 and internal nodes degree 3.
	var root = -1
	for v, s := range adj {
		if len(s) == 2 {
			if refHeight(adj, v, -1) == d+1 && refBalanced(adj, v, -1) {
				root = v
				break
			}
		}
	}
	if root == -1 {
		return nil
	}
	canon := make([]int, n)
	ok := true
	var label func(v, parent, id int)
	label = func(v, parent, id int) {
		if id >= n {
			ok = false
			return
		}
		canon[v] = id
		var kids []int
		for u := range adj[v] {
			if u != parent {
				kids = append(kids, u)
			}
		}
		if len(kids) == 0 {
			return
		}
		if len(kids) != 2 {
			ok = false
			return
		}
		// Map order decided which child became the left subtree, so the
		// heap labeling differed between runs; sort for a stable Canon.
		sort.Ints(kids)
		label(kids[0], v, 2*id+1)
		label(kids[1], v, 2*id+2)
	}
	label(root, -1, 0)
	if !ok {
		return nil
	}
	return &Detection{Family: FamilyCBTree, Params: []int{d}, Canon: canon}
}

func refHeight(adj []map[int]bool, v, parent int) int {
	h := 0
	for u := range adj[v] {
		if u != parent {
			if ch := refHeight(adj, u, v); ch > h {
				h = ch
			}
		}
	}
	return h + 1
}

func refBalanced(adj []map[int]bool, v, parent int) bool {
	var hs []int
	for u := range adj[v] {
		if u != parent {
			if !refBalanced(adj, u, v) {
				return false
			}
			hs = append(hs, refHeight(adj, u, v))
		}
	}
	if len(hs) == 0 {
		return true
	}
	if len(hs) != 2 {
		return false
	}
	return hs[0] == hs[1]
}
