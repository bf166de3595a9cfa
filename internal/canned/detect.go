// Package canned implements MAPPER's library of precomputed mappings for
// nameable task graphs (paper, Section 4.1): structural detection of
// well-known graph families, contraction by folding (Fishburn-Finkel
// quotient networks), and low-dilation embeddings — including the
// paper's own contribution, an embedding of the binomial tree into the
// square mesh with average dilation bounded by 1.2.
package canned

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"oregami/internal/graph"
)

// Family names detected by Detect.
const (
	FamilyRing      = "ring"
	FamilyLinear    = "linear"
	FamilyGrid      = "grid" // 2-D mesh-structured task graph
	FamilyTorus     = "torus"
	FamilyHypercube = "hypercube"
	FamilyCBTree    = "cbtree" // complete binary tree
	FamilyBinomial  = "binomial"
)

// Detection describes a recognized task-graph family along with the
// canonical relabeling that exhibits it: Canon[t] is the canonical id of
// task t within the family (ring order, row-major grid order, hypercube
// bitmask, heap order, or binomial bitmask).
type Detection struct {
	Family string
	Params []int // ring/linear: n; grid: rows, cols; hypercube: dim; cbtree: depth; binomial: k
	Canon  []int
}

// Detect recognizes the collapsed structure of g as one of the known
// families, trying the most specific families first. It returns nil if
// no family matches. Detection walks the CSR, whose rows are ascending,
// so every "first neighbor in the row" pick is the smallest neighbor and
// the canonical labeling is the same on every run.
func Detect(g *graph.TaskGraph) *Detection {
	if g.NumTasks == 0 {
		return nil
	}
	// Every family is connected; the distances from task 0 also seed
	// the hypercube labeling.
	dist0 := g.BFSDistances(0)
	for _, d := range dist0 {
		if d < 0 {
			return nil
		}
	}
	c := g.CSR()
	if d := detectHypercube(c, dist0); d != nil {
		return d
	}
	if d := detectGrid(g, c); d != nil {
		return d
	}
	if d := detectTorus(c); d != nil {
		return d
	}
	if d := detectRing(c); d != nil {
		return d
	}
	if d := detectLinear(c); d != nil {
		return d
	}
	if d := detectBinomial(c); d != nil {
		return d
	}
	if d := detectCBTree(c); d != nil {
		return d
	}
	return nil
}

// adjacent reports whether tasks a and b share a collapsed edge.
func adjacent(c *graph.CSR, a, b int) bool {
	_, ok := c.WeightBetween(a, b)
	return ok
}

func detectRing(c *graph.CSR) *Detection {
	n := c.N
	if n < 3 {
		return nil
	}
	for v := 0; v < n; v++ {
		if c.Degree(v) != 2 {
			return nil
		}
	}
	// Walk the cycle from 0; the first step goes to the smaller
	// neighbor, every later step to the neighbor we did not come from.
	canon := make([]int, n)
	prev, cur := -1, 0
	for i := 0; i < n; i++ {
		canon[cur] = i
		row := c.Neighbors(cur)
		next := int(row[0])
		if next == prev {
			next = int(row[1])
		}
		prev, cur = cur, next
	}
	if cur != 0 {
		return nil
	}
	return &Detection{Family: FamilyRing, Params: []int{n}, Canon: canon}
}

func detectLinear(c *graph.CSR) *Detection {
	n := c.N
	if n < 2 || c.NumPairs() != n-1 {
		return nil
	}
	ends := 0
	start := -1
	for v := 0; v < n; v++ {
		switch c.Degree(v) {
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
		for _, u := range c.Neighbors(cur) {
			if int(u) != prev {
				next = int(u)
			}
		}
		prev, cur = cur, next
	}
	return &Detection{Family: FamilyLinear, Params: []int{n}, Canon: canon}
}

// detectGrid coordinatizes a 2-D mesh from corner distances: with c0 a
// corner at (0,0) and c1 the nearest other corner at (0, C-1), Manhattan
// distances give r = (d0+d1-(C-1))/2 and c = (d0-d1+(C-1))/2.
func detectGrid(g *graph.TaskGraph, c *graph.CSR) *Detection {
	n := c.N
	if n < 4 {
		return nil
	}
	var corners []int // ascending: collected in task order
	for v := 0; v < n; v++ {
		switch c.Degree(v) {
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
	d0 := g.BFSDistances(corners[0])
	// Nearest other corner defines the column count.
	c1, best := -1, 1<<30
	for _, v := range corners[1:] {
		if d0[v] < best {
			c1, best = v, d0[v]
		}
	}
	cols := best + 1
	if cols < 2 || n%cols != 0 {
		return nil
	}
	rows := n / cols
	d1 := g.BFSDistances(c1)
	coord := make([]int, n)
	for v := range coord {
		sum := d0[v] + d1[v] - (cols - 1)
		diff := d0[v] - d1[v] + (cols - 1)
		if sum < 0 || sum%2 != 0 || diff < 0 || diff%2 != 0 {
			return nil
		}
		r, col := sum/2, diff/2
		if r >= rows || col >= cols {
			return nil
		}
		coord[v] = r*cols + col
	}
	if !verifyGrid(c, coord, rows, cols) {
		return nil
	}
	return &Detection{Family: FamilyGrid, Params: []int{rows, cols}, Canon: coord}
}

// positions inverts a canonical labeling: pos[l] is the task labeled l.
// It returns nil unless coord is a bijection onto 0..size-1.
func positions(coord []int, size int) []int {
	pos := make([]int, size)
	for i := range pos {
		pos[i] = -1
	}
	for v, l := range coord {
		if l < 0 || l >= size || pos[l] != -1 {
			return nil
		}
		pos[l] = v
	}
	return pos
}

func verifyGrid(c *graph.CSR, coord []int, rows, cols int) bool {
	pos := positions(coord, rows*cols)
	if pos == nil {
		return false
	}
	want := 0
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			v := pos[r*cols+col]
			if col+1 < cols {
				if !adjacent(c, v, pos[r*cols+col+1]) {
					return false
				}
				want++
			}
			if r+1 < rows {
				if !adjacent(c, v, pos[(r+1)*cols+col]) {
					return false
				}
				want++
			}
		}
	}
	return c.NumPairs() == want
}

// detectTorus coordinatizes a 2-D torus with both extents >= 5 (smaller
// extents create chords/multi-edges that alias other families: a 4x4
// torus is the 4-cube, a 3-extent torus has triangles). The walk from a
// start node follows "straight" continuations: in a chord-free torus,
// the straight neighbor u of cur (coming from prev) is the unique
// neighbor with exactly one common neighbor with prev (the turns share
// two).
func detectTorus(c *graph.CSR) *Detection {
	n := c.N
	if n < 25 {
		return nil
	}
	for v := 0; v < n; v++ {
		if c.Degree(v) != 4 {
			return nil
		}
	}
	if c.NumPairs() != 2*n {
		return nil
	}
	straight := func(prev, cur int) int {
		out := -1
		for _, u := range c.Neighbors(cur) {
			if int(u) == prev {
				continue
			}
			common := 0
			for _, w := range c.Neighbors(int(u)) {
				if adjacent(c, prev, int(w)) {
					common++
				}
			}
			if common == 1 {
				if out != -1 {
					return -1 // ambiguous: not a chord-free torus
				}
				out = int(u)
			}
		}
		return out
	}
	// Walk a row from 0 through its first neighbor.
	row := []int{0, int(c.Neighbors(0)[0])}
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
	coord := make([]int, n)
	for i := range coord {
		coord[i] = -1
	}
	for i, v := range row {
		coord[v] = i
	}
	// The column direction: the first neighbor of 0 not in the row.
	down := -1
	for _, u := range c.Neighbors(0) {
		if coord[u] == -1 {
			down = int(u)
			break
		}
	}
	if down == -1 {
		return nil
	}
	cur := row
	var prevRow []int
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
					for _, u := range c.Neighbors(v) {
						if coord[u] == -1 && adjacent(c, int(u), next[i-1]) {
							if cand != -1 {
								return nil
							}
							cand = int(u)
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
	if !verifyTorus(c, coord, rows, cols) {
		return nil
	}
	return &Detection{Family: FamilyTorus, Params: []int{rows, cols}, Canon: coord}
}

func verifyTorus(c *graph.CSR, coord []int, rows, cols int) bool {
	pos := positions(coord, rows*cols)
	if pos == nil {
		return false
	}
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			v := pos[r*cols+col]
			if !adjacent(c, v, pos[r*cols+(col+1)%cols]) ||
				!adjacent(c, v, pos[((r+1)%rows)*cols+col]) {
				return false
			}
		}
	}
	return true
}

// detectHypercube labels a d-cube from the BFS distances dist of task 0.
func detectHypercube(c *graph.CSR, dist []int) *Detection {
	n := c.N
	d := 0
	for 1<<uint(d) < n {
		d++
	}
	if n < 2 || 1<<uint(d) != n {
		return nil
	}
	for v := 0; v < n; v++ {
		if c.Degree(v) != d {
			return nil
		}
	}
	if c.NumPairs() != n*d/2 {
		return nil
	}
	// Label node 0 as bitstring 0 and its neighbors as the unit
	// bitmasks in row order. Any node u at BFS distance >= 2 from node 0
	// has (in a true hypercube) at least two neighbors x, y one layer
	// closer, and its label must be label[x] | label[y] (x and y are u
	// with one of u's set bits cleared). Verification afterwards rejects
	// impostors.
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
	label[0] = 0
	for i, u := range c.Neighbors(0) {
		label[u] = 1 << uint(i)
	}
	for _, u := range order {
		if dist[u] < 2 {
			continue
		}
		x, y := -1, -1
		for _, w := range c.Neighbors(u) {
			if dist[w] == dist[u]-1 && label[w] != -1 {
				if x == -1 {
					x = int(w)
				} else {
					y = int(w)
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
	for v := 0; v < n; v++ {
		for _, u := range c.Neighbors(v) {
			if bits.OnesCount(uint(label[v]^label[u])) != 1 {
				return nil
			}
		}
	}
	return &Detection{Family: FamilyHypercube, Params: []int{d}, Canon: label}
}

// detectBinomial checks for the binomial tree B_k via AHU canonical
// encoding rooted at the unique maximum-degree vertex.
func detectBinomial(c *graph.CSR) *Detection {
	n := c.N
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	if n < 2 || 1<<uint(k) != n || c.NumPairs() != n-1 {
		return nil
	}
	root := 0
	for v := 1; v < n; v++ {
		if c.Degree(v) > c.Degree(root) {
			root = v
		}
	}
	if c.Degree(root) != k {
		return nil
	}
	canon := make([]int, n)
	for i := range canon {
		canon[i] = -1
	}
	if !assignBinomial(c, root, -1, k, 0, canon) {
		return nil
	}
	return &Detection{Family: FamilyBinomial, Params: []int{k}, Canon: canon}
}

// assignBinomial labels the subtree rooted at v (coming from parent) as
// the binomial tree B_order with root label base; children must be roots
// of B_0..B_{order-1}.
func assignBinomial(c *graph.CSR, v, parent, order, base int, canon []int) bool {
	canon[v] = base
	var kids []int
	for _, u := range c.Neighbors(v) {
		if int(u) != parent {
			kids = append(kids, int(u))
		}
	}
	if len(kids) != order {
		return false
	}
	// Sort children by subtree size = 2^their order; match each to a
	// distinct order 0..order-1 by degree heuristic then verify.
	sort.Slice(kids, func(i, j int) bool {
		return subtreeSize(c, kids[i], v) < subtreeSize(c, kids[j], v)
	})
	for i, kid := range kids {
		if subtreeSize(c, kid, v) != 1<<uint(i) {
			return false
		}
		if !assignBinomial(c, kid, v, i, base+(1<<uint(i)), canon) {
			return false
		}
	}
	return true
}

func subtreeSize(c *graph.CSR, v, parent int) int {
	n := 1
	for _, u := range c.Neighbors(v) {
		if int(u) != parent {
			n += subtreeSize(c, int(u), v)
		}
	}
	return n
}

// detectCBTree checks for a complete binary tree and labels it in heap
// order, the smaller child of each node on the left.
func detectCBTree(c *graph.CSR) *Detection {
	n := c.N
	d := 0
	for 1<<uint(d+1)-1 < n {
		d++
	}
	if n < 3 || 1<<uint(d+1)-1 != n || c.NumPairs() != n-1 {
		return nil
	}
	// Root: the unique degree-2 vertex at distance d from every leaf;
	// for d >= 1 the root has degree 2 and internal nodes degree 3.
	var root = -1
	for v := 0; v < n; v++ {
		if c.Degree(v) == 2 && height(c, v, -1) == d+1 && balanced(c, v, -1) {
			root = v
			break
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
		for _, u := range c.Neighbors(v) {
			if int(u) != parent {
				kids = append(kids, int(u))
			}
		}
		if len(kids) == 0 {
			return
		}
		if len(kids) != 2 {
			ok = false
			return
		}
		label(kids[0], v, 2*id+1)
		label(kids[1], v, 2*id+2)
	}
	label(root, -1, 0)
	if !ok {
		return nil
	}
	return &Detection{Family: FamilyCBTree, Params: []int{d}, Canon: canon}
}

func height(c *graph.CSR, v, parent int) int {
	h := 0
	for _, u := range c.Neighbors(v) {
		if int(u) != parent {
			if ch := height(c, int(u), v); ch > h {
				h = ch
			}
		}
	}
	return h + 1
}

func balanced(c *graph.CSR, v, parent int) bool {
	var hs []int
	for _, u := range c.Neighbors(v) {
		if int(u) != parent {
			if !balanced(c, int(u), v) {
				return false
			}
			hs = append(hs, height(c, int(u), v))
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

// String renders the detection for logs and the METRICS display.
func (d *Detection) String() string {
	parts := make([]string, len(d.Params))
	for i, p := range d.Params {
		parts[i] = fmt.Sprint(p)
	}
	return d.Family + "(" + strings.Join(parts, "x") + ")"
}
