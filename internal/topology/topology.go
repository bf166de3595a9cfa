// Package topology models the regular interconnection networks OREGAMI
// targets (ring, linear array, mesh, torus, hypercube, trees, butterfly,
// complete, star). A Network is an undirected graph of homogeneous
// processors with identified links; it answers the distance and
// shortest-route queries that the embedding and routing algorithms
// (Sections 4.3-4.4 of the paper) depend on.
package topology

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Link is a bidirectional physical channel between processors A and B.
// IDs are dense, 0..NumLinks-1, mirroring the paper's numbered links in
// Fig 6.
type Link struct {
	ID   int
	A, B int
}

// Other returns the endpoint of l that is not v, for v one of its
// endpoints.
func (l Link) Other(v int) int {
	if v == l.A {
		return l.B
	}
	return l.A
}

// Network is an undirected processor graph.
type Network struct {
	// Kind is the family name ("hypercube", "mesh", ...); Name is the
	// parameterized instance name ("hypercube(3)").
	Kind string
	Name string
	// N is the number of processors.
	N int
	// Dims carries shape metadata: mesh/torus row/col counts, hypercube
	// dimension, tree depth, etc. Interpretation depends on Kind.
	Dims []int

	adj     [][]int
	adjLink [][]int // link ids aligned slot for slot with adj
	links   []Link
	linkID  map[[2]int]int            // construction-time dup detection only
	dist    atomic.Pointer[[][]int16] // lazily computed all-pairs hop distances
	hier    *hierTables               // per-PE digit tables of a "hier" network
	closed  closedForm                // the family's closed forms; zero on degraded views
	maxNext int                       // closed.maxNext(nw), 0 without one

	// Degraded views (see Masked): when degraded is set, deadProc and
	// deadLink mark failed hardware, adj excludes dead links, and closed
	// is left zero, so distances come from BFS and next hops from a scan.
	degraded bool
	deadProc []bool
	deadLink []bool
}

func newNetwork(kind, name string, n int, dims ...int) *Network {
	return &Network{
		Kind:   kind,
		Name:   name,
		N:      n,
		Dims:   dims,
		adj:    make([][]int, n),
		linkID: make(map[[2]int]int),
	}
}

// addLink inserts an undirected link a-b if not already present.
func (nw *Network) addLink(a, b int) {
	if a == b {
		panic(fmt.Sprintf("topology: self link at %d", a))
	}
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	if _, dup := nw.linkID[key]; dup {
		return
	}
	id := len(nw.links)
	nw.linkID[key] = id
	nw.links = append(nw.links, Link{ID: id, A: a, B: b})
	nw.adj[a] = append(nw.adj[a], b)
	nw.adj[b] = append(nw.adj[b], a)
}

func (nw *Network) finish() *Network {
	for _, l := range nw.adj {
		sort.Ints(l)
	}
	nw.buildAdjLink()
	nw.closed = closedForms[nw.Kind]
	if nw.closed.maxNext != nil {
		nw.maxNext = nw.closed.maxNext(nw)
	}
	return nw
}

// buildAdjLink fills adjLink so that adjLink[v][i] is the id of the link
// joining v and adj[v][i]. Hot queries (LinkBetween, NeighborLinks) read
// these flat arrays; the linkID map only serves construction.
func (nw *Network) buildAdjLink() {
	nw.adjLink = make([][]int, nw.N)
	for v, row := range nw.adj {
		ids := make([]int, len(row))
		for i, u := range row {
			a, b := v, u
			if a > b {
				a, b = b, a
			}
			ids[i] = nw.linkID[[2]int{a, b}]
		}
		nw.adjLink[v] = ids
	}
}

// Processors returns the number of processors (the N field). This is
// the pristine machine size; see NumLive for the degraded count.
func (nw *Network) Processors() int { return nw.N }

// Family returns the network family name (the Kind field), e.g.
// "hypercube" or "mesh"; Kinds lists the valid families.
func (nw *Network) Family() string { return nw.Kind }

// Instance returns the parameterized instance name (the Name field),
// e.g. "hypercube(3)" or "mesh(4x4)".
func (nw *Network) Instance() string { return nw.Name }

// Shape returns a copy of the family-specific shape metadata (the Dims
// field): mesh/torus row and column counts, hypercube dimension, tree
// depth, and so on. Mutating the copy does not affect the network.
func (nw *Network) Shape() []int { return append([]int(nil), nw.Dims...) }

// Neighbors returns the sorted neighbor list of processor v. The returned
// slice is shared; callers must not modify it.
func (nw *Network) Neighbors(v int) []int { return nw.adj[v] }

// Degree returns the number of links incident to processor v.
func (nw *Network) Degree(v int) int { return len(nw.adj[v]) }

// NumLinks returns the number of physical links.
func (nw *Network) NumLinks() int { return len(nw.links) }

// Links returns all links. The returned slice is shared; callers must not
// modify it.
func (nw *Network) Links() []Link { return nw.links }

// LinkBetween returns the link id joining a and b, if adjacent. On a
// degraded view, failed links do not join their endpoints. It binary
// searches a's adjacency row (which already excludes dead links) rather
// than hashing a map key — this sits on MM-Route's innermost loop.
func (nw *Network) LinkBetween(a, b int) (int, bool) {
	row := nw.adj[a]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == b {
		return nw.adjLink[a][lo], true
	}
	return 0, false
}

// NeighborLinks returns the link ids aligned slot for slot with
// Neighbors(v): NeighborLinks(v)[i] joins v and Neighbors(v)[i]. The
// returned slice is shared; callers must not modify it.
func (nw *Network) NeighborLinks(v int) []int { return nw.adjLink[v] }

// Link returns the link with the given id.
func (nw *Network) Link(id int) Link { return nw.links[id] }

// Distance returns the hop distance between processors a and b. Regular
// families (mesh, torus, hypercube, complete, star, ring, linear, hier)
// are answered by the closed form their network chose at construction;
// other families — and every degraded view, whose failures invalidate
// the closed forms — fall back to a cached all-pairs BFS. On a degraded
// view, unreachable pairs report distance -1.
func (nw *Network) Distance(a, b int) int {
	if nw.closed.distance != nil {
		return nw.closed.distance(nw, a, b)
	}
	return int(nw.distances()[a][b])
}

// ClosedFormDistance reports whether Distance answers every pair from a
// closed form, so the network never builds its all-pairs BFS table
// (N²·2 bytes). The tree, butterfly and cube-connected-cycles families
// and every degraded view build it on their first Distance call.
func (nw *Network) ClosedFormDistance() bool { return nw.closed.distance != nil }

// NextLinks appends to buf the ids of the links from cur to a neighbor
// one hop closer to dst, in NeighborLinks(cur) order, and returns the
// extended slice: the first hops of every shortest cur->dst path. It
// appends nothing when cur == dst or when dst is unreachable from cur on
// a degraded view. Families with a closed form answer without a
// Distance call per neighbor; the rest, and degraded views, scan the
// adjacency row. MM-Route's tie-breaks depend on the order.
func (nw *Network) NextLinks(cur, dst int, buf []int) []int {
	if cur == dst {
		return buf
	}
	if nw.closed.nextLinks != nil {
		return nw.closed.nextLinks(nw, cur, dst, buf)
	}
	base := nw.Distance(cur, dst)
	if base < 0 {
		return buf
	}
	lids := nw.adjLink[cur]
	for i, u := range nw.adj[cur] {
		if nw.Distance(u, dst) == base-1 {
			buf = append(buf, lids[i])
		}
	}
	return buf
}

// MaxNextLinks returns the most links NextLinks can return for any pair
// of this network, so a caller can size its buffers once; it is 0 when
// no closed form bounds it (the scanned families and degraded views).
func (nw *Network) MaxNextLinks() int { return nw.maxNext }

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Diameter returns the maximum pairwise hop distance.
func (nw *Network) Diameter() int {
	d := 0
	for a := 0; a < nw.N; a++ {
		for b := a + 1; b < nw.N; b++ {
			if dd := nw.Distance(a, b); dd > d {
				d = dd
			}
		}
	}
	return d
}

// distances returns the all-pairs hop table, building it on first use.
// It is safe for concurrent use: first callers that race each build the
// same table, and every caller gets the one published first.
func (nw *Network) distances() [][]int16 {
	if d := nw.dist.Load(); d != nil {
		return *d
	}
	dist := make([][]int16, nw.N)
	for s := 0; s < nw.N; s++ {
		d := make([]int16, nw.N)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		for q := []int{s}; len(q) > 0; {
			v := q[0]
			q = q[1:]
			for _, u := range nw.adj[v] {
				if d[u] == -1 {
					d[u] = d[v] + 1
					q = append(q, u)
				}
			}
		}
		dist[s] = d
	}
	if nw.dist.CompareAndSwap(nil, &dist) {
		return dist
	}
	return *nw.dist.Load()
}

// NextHops returns the neighbors of src that lie on some shortest path
// from src to dst, in ascending order: the far ends of NextLinks. For
// src == dst, or when dst is unreachable from src on a degraded view,
// it returns nil.
func (nw *Network) NextHops(src, dst int) []int {
	hops := nw.NextLinks(src, dst, nil)
	for i, id := range hops {
		hops[i] = nw.links[id].Other(src)
	}
	return hops
}

// Connected reports whether the network is a single connected component.
func (nw *Network) Connected() bool {
	if nw.N == 0 {
		return true
	}
	seen := make([]bool, nw.N)
	seen[0] = true
	count := 1
	for q := []int{0}; len(q) > 0; {
		v := q[0]
		q = q[1:]
		for _, u := range nw.adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				q = append(q, u)
			}
		}
	}
	return count == nw.N
}

// --- Constructors -----------------------------------------------------

// Ring builds a cycle of n processors (n >= 3).
func Ring(n int) *Network {
	if n < 3 {
		panic(fmt.Sprintf("topology: ring needs n >= 3, got %d", n))
	}
	nw := newNetwork("ring", fmt.Sprintf("ring(%d)", n), n, n)
	for i := 0; i < n; i++ {
		nw.addLink(i, (i+1)%n)
	}
	return nw.finish()
}

// Linear builds a linear array (path) of n processors (n >= 1).
func Linear(n int) *Network {
	if n < 1 {
		panic(fmt.Sprintf("topology: linear needs n >= 1, got %d", n))
	}
	nw := newNetwork("linear", fmt.Sprintf("linear(%d)", n), n, n)
	for i := 0; i+1 < n; i++ {
		nw.addLink(i, i+1)
	}
	return nw.finish()
}

// Mesh builds an r x c two-dimensional mesh. Processor (i,j) has index
// i*c + j.
func Mesh(r, c int) *Network {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("topology: mesh needs positive dims, got %dx%d", r, c))
	}
	nw := newNetwork("mesh", fmt.Sprintf("mesh(%dx%d)", r, c), r*c, r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				nw.addLink(v, v+1)
			}
			if i+1 < r {
				nw.addLink(v, v+c)
			}
		}
	}
	return nw.finish()
}

// Torus builds an r x c two-dimensional torus (wraparound mesh). Wrap
// links are omitted along a dimension of extent < 3 to avoid duplicating
// the mesh link.
func Torus(r, c int) *Network {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("topology: torus needs positive dims, got %dx%d", r, c))
	}
	nw := newNetwork("torus", fmt.Sprintf("torus(%dx%d)", r, c), r*c, r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if c > 1 && (j+1 < c || c > 2) {
				nw.addLink(v, i*c+(j+1)%c)
			}
			if r > 1 && (i+1 < r || r > 2) {
				nw.addLink(v, ((i+1)%r)*c+j)
			}
		}
	}
	return nw.finish()
}

// MeshCoord returns the (row, col) coordinates of processor v in a mesh
// or torus network.
func (nw *Network) MeshCoord(v int) (int, int) {
	if nw.Kind != "mesh" && nw.Kind != "torus" {
		panic("topology: MeshCoord on " + nw.Kind)
	}
	c := nw.Dims[1]
	return v / c, v % c
}

// Hypercube builds a d-dimensional binary hypercube with 2^d processors;
// u and v are adjacent iff their labels differ in exactly one bit.
func Hypercube(d int) *Network {
	if d < 0 || d > 20 {
		panic(fmt.Sprintf("topology: hypercube dimension %d out of range", d))
	}
	n := 1 << uint(d)
	nw := newNetwork("hypercube", fmt.Sprintf("hypercube(%d)", d), n, d)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << uint(b))
			if u > v {
				nw.addLink(v, u)
			}
		}
	}
	return nw.finish()
}

// CompleteBinaryTree builds the complete binary tree of the given depth
// (depth 0 = single node), with 2^(depth+1)-1 processors in heap order:
// node v has children 2v+1 and 2v+2.
func CompleteBinaryTree(depth int) *Network {
	if depth < 0 || depth > 20 {
		panic(fmt.Sprintf("topology: tree depth %d out of range", depth))
	}
	n := 1<<uint(depth+1) - 1
	nw := newNetwork("cbtree", fmt.Sprintf("cbtree(%d)", depth), n, depth)
	for v := 0; 2*v+2 < n; v++ {
		nw.addLink(v, 2*v+1)
		nw.addLink(v, 2*v+2)
	}
	return nw.finish()
}

// BinomialTree builds the binomial tree B_k with 2^k processors. Node
// labels are bitmasks; the parent of v != 0 clears v's lowest set bit.
// B_k is a spanning tree of the k-cube, which is why it embeds in the
// hypercube with dilation 1.
func BinomialTree(k int) *Network {
	if k < 0 || k > 20 {
		panic(fmt.Sprintf("topology: binomial order %d out of range", k))
	}
	n := 1 << uint(k)
	nw := newNetwork("binomial", fmt.Sprintf("binomial(%d)", k), n, k)
	for v := 1; v < n; v++ {
		nw.addLink(v, v&(v-1))
	}
	return nw.finish()
}

// Butterfly builds the k-dimensional butterfly with (k+1)*2^k processors.
// Node (level l, row r) has index l*2^k + r; level l < k connects to
// level l+1 at the same row (straight edge) and at the row with bit l
// flipped (cross edge).
func Butterfly(k int) *Network {
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("topology: butterfly order %d out of range", k))
	}
	rows := 1 << uint(k)
	n := (k + 1) * rows
	nw := newNetwork("butterfly", fmt.Sprintf("butterfly(%d)", k), n, k)
	for l := 0; l < k; l++ {
		for r := 0; r < rows; r++ {
			v := l*rows + r
			nw.addLink(v, (l+1)*rows+r)
			nw.addLink(v, (l+1)*rows+(r^(1<<uint(l))))
		}
	}
	return nw.finish()
}

// CubeConnectedCycles builds the CCC of order k (k >= 3): each vertex of
// the k-cube is replaced by a k-cycle, node (v, p) has index v*k + p,
// and (v, p) connects to its cycle neighbors and across the cube
// dimension p. CCC is itself a Cayley graph — the group-theoretic view
// of interconnection networks the paper cites ([AK89]).
func CubeConnectedCycles(k int) *Network {
	if k < 3 || k > 16 {
		panic(fmt.Sprintf("topology: CCC order %d out of range (3..16)", k))
	}
	n := k * (1 << uint(k))
	nw := newNetwork("ccc", fmt.Sprintf("ccc(%d)", k), n, k)
	id := func(v, p int) int { return v*k + p }
	for v := 0; v < 1<<uint(k); v++ {
		for p := 0; p < k; p++ {
			nw.addLink(id(v, p), id(v, (p+1)%k))
			u := v ^ (1 << uint(p))
			if u > v {
				nw.addLink(id(v, p), id(u, p))
			}
		}
	}
	return nw.finish()
}

// Complete builds the complete graph on n processors.
func Complete(n int) *Network {
	if n < 1 {
		panic(fmt.Sprintf("topology: complete needs n >= 1, got %d", n))
	}
	nw := newNetwork("complete", fmt.Sprintf("complete(%d)", n), n, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			nw.addLink(a, b)
		}
	}
	return nw.finish()
}

// Star builds a star: processor 0 is the hub connected to 1..n-1.
func Star(n int) *Network {
	if n < 2 {
		panic(fmt.Sprintf("topology: star needs n >= 2, got %d", n))
	}
	nw := newNetwork("star", fmt.Sprintf("star(%d)", n), n, n)
	for v := 1; v < n; v++ {
		nw.addLink(0, v)
	}
	return nw.finish()
}

// family describes one constructible network family: its parameter
// count (arity -1 means variadic — the builder validates the count
// itself) and a builder over those parameters.
type family struct {
	arity int
	build func(params []int) *Network
}

// families is the registry behind ByName, ParseSpec, and Kinds.
var families = map[string]family{
	"ring":      {1, func(p []int) *Network { return Ring(p[0]) }},
	"linear":    {1, func(p []int) *Network { return Linear(p[0]) }},
	"mesh":      {2, func(p []int) *Network { return Mesh(p[0], p[1]) }},
	"torus":     {2, func(p []int) *Network { return Torus(p[0], p[1]) }},
	"hypercube": {1, func(p []int) *Network { return Hypercube(p[0]) }},
	"cbtree":    {1, func(p []int) *Network { return CompleteBinaryTree(p[0]) }},
	"binomial":  {1, func(p []int) *Network { return BinomialTree(p[0]) }},
	"butterfly": {1, func(p []int) *Network { return Butterfly(p[0]) }},
	"ccc":       {1, func(p []int) *Network { return CubeConnectedCycles(p[0]) }},
	"complete":  {1, func(p []int) *Network { return Complete(p[0]) }},
	"star":      {1, func(p []int) *Network { return Star(p[0]) }},
	"hier":      {-1, func(p []int) *Network { return Hierarchy(p...) }},
}

// closedForm is one family's closed-form queries. A pristine network
// takes its family's entry from closedForms at construction (finish),
// so Distance and NextLinks make one indirect call instead of matching
// the family name per query. A nil nextLinks keeps the NextLinks scan;
// a zero closedForm (the tree, binomial, butterfly and ccc families, and
// every degraded view, which Masked builds without finish) keeps the
// BFS table as well. nextLinks is only called with cur != dst; maxNext
// bounds the links it returns.
type closedForm struct {
	distance  func(nw *Network, a, b int) int
	nextLinks func(nw *Network, cur, dst int, buf []int) []int
	maxNext   func(nw *Network) int
}

// closedForms holds the closed forms of the families that have them,
// beside families, which builds their networks.
var closedForms = map[string]closedForm{
	"mesh":      {meshDistance, meshNextLinks, meshMaxNext},
	"torus":     {torusDistance, torusNextLinks, torusMaxNext},
	"hypercube": {hypercubeDistance, hypercubeNextLinks, func(nw *Network) int { return nw.Dims[0] }},
	"complete":  {completeDistance, completeNextLinks, oneNext},
	"star":      {starDistance, starNextLinks, oneNext},
	"ring":      {ringDistance, ringNextLinks, func(nw *Network) int { return axisMaxNext(nw.N, true) }},
	"linear":    {linearDistance, linearNextLinks, oneNext},
	"hier":      {(*Network).hierDistance, (*Network).hierNextLinks, oneNext},
}

func oneNext(*Network) int { return 1 }

// axisMaxNext is how many of a mesh or torus axis's links can lead
// closer to a destination: none on an extent-1 axis, both ways halfway
// round an even wrapping axis, else one.
func axisMaxNext(extent int, wrap bool) int {
	switch {
	case extent == 1:
		return 0
	case wrap && extent > 2 && extent%2 == 0:
		return 2
	}
	return 1
}

// axisDist is the hop distance between coordinates x and y along one
// mesh or torus axis of the given extent; a torus axis wraps only when
// its extent exceeds 2 (Torus omits the duplicate wrap link).
func axisDist(x, y, extent int, wrap bool) int {
	d := iabs(x - y)
	if wrap && extent > 2 && extent-d < d {
		d = extent - d
	}
	return d
}

func gridDistance(nw *Network, a, b int, wrap bool) int {
	r, c := nw.Dims[0], nw.Dims[1]
	return axisDist(a/c, b/c, r, wrap) + axisDist(a%c, b%c, c, wrap)
}

// gridNextLinks keeps the links of cur's row whose far end moves one
// coordinate closer to dst along its axis: a neighbor differs from cur
// in exactly one coordinate. At an even torus's halfway point both
// directions are closer, and both are kept.
func gridNextLinks(nw *Network, cur, dst int, buf []int, wrap bool) []int {
	r, c := nw.Dims[0], nw.Dims[1]
	cr, cc, dr, dc := cur/c, cur%c, dst/c, dst%c
	rowD, colD := axisDist(cr, dr, r, wrap), axisDist(cc, dc, c, wrap)
	lids := nw.adjLink[cur]
	for i, u := range nw.adj[cur] {
		ur, uc := u/c, u%c
		if (ur != cr && axisDist(ur, dr, r, wrap) < rowD) || (uc != cc && axisDist(uc, dc, c, wrap) < colD) {
			buf = append(buf, lids[i])
		}
	}
	return buf
}

func meshMaxNext(nw *Network) int {
	return axisMaxNext(nw.Dims[0], false) + axisMaxNext(nw.Dims[1], false)
}
func torusMaxNext(nw *Network) int {
	return axisMaxNext(nw.Dims[0], true) + axisMaxNext(nw.Dims[1], true)
}

func meshDistance(nw *Network, a, b int) int  { return gridDistance(nw, a, b, false) }
func torusDistance(nw *Network, a, b int) int { return gridDistance(nw, a, b, true) }
func meshNextLinks(nw *Network, cur, dst int, buf []int) []int {
	return gridNextLinks(nw, cur, dst, buf, false)
}
func torusNextLinks(nw *Network, cur, dst int, buf []int) []int {
	return gridNextLinks(nw, cur, dst, buf, true)
}

func hypercubeDistance(_ *Network, a, b int) int { return bits.OnesCount(uint(a ^ b)) }

// hypercubeNextLinks keeps the links that flip a bit in which cur and
// dst differ.
func hypercubeNextLinks(nw *Network, cur, dst int, buf []int) []int {
	diff := cur ^ dst
	lids := nw.adjLink[cur]
	for i, u := range nw.adj[cur] {
		if (u^cur)&diff != 0 {
			buf = append(buf, lids[i])
		}
	}
	return buf
}

func completeDistance(_ *Network, a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

// completeNextLinks returns the direct link: cur's row lists every other
// processor in order, so dst sits at index dst, or dst-1 past cur.
func completeNextLinks(nw *Network, cur, dst int, buf []int) []int {
	i := dst
	if dst > cur {
		i--
	}
	return append(buf, nw.adjLink[cur][i])
}

func starDistance(_ *Network, a, b int) int {
	switch {
	case a == b:
		return 0
	case a == 0 || b == 0:
		return 1
	default:
		return 2
	}
}

// starNextLinks returns the hub's link to dst (the hub's row is 1..n-1),
// or a leaf's one link to the hub.
func starNextLinks(nw *Network, cur, dst int, buf []int) []int {
	if cur == 0 {
		return append(buf, nw.adjLink[0][dst-1])
	}
	return append(buf, nw.adjLink[cur][0])
}

func ringDistance(nw *Network, a, b int) int {
	d := iabs(a - b)
	if nw.N-d < d {
		d = nw.N - d
	}
	return d
}

// ringNextLinks keeps the one or, halfway round an even ring, two links
// toward dst.
func ringNextLinks(nw *Network, cur, dst int, buf []int) []int {
	d := ringDistance(nw, cur, dst)
	lids := nw.adjLink[cur]
	for i, u := range nw.adj[cur] {
		if ringDistance(nw, u, dst) < d {
			buf = append(buf, lids[i])
		}
	}
	return buf
}

func linearDistance(_ *Network, a, b int) int { return iabs(a - b) }

// linearNextLinks returns the link toward dst: cur's row is [cur-1,
// cur+1] without the one an end processor lacks.
func linearNextLinks(nw *Network, cur, dst int, buf []int) []int {
	lids := nw.adjLink[cur]
	if dst > cur {
		return append(buf, lids[len(lids)-1])
	}
	return append(buf, lids[0])
}

// Kinds returns the valid network family names, sorted, for use in
// error messages and CLI/API help.
func Kinds() []string {
	kinds := make([]string, 0, len(families))
	for k := range families {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ByName constructs a network from a family name and parameters, the hook
// used by the CLIs and the serve API; Kinds lists the valid names.
func ByName(kind string, params ...int) (*Network, error) {
	fam, ok := families[kind]
	if !ok {
		return nil, fmt.Errorf("topology: unknown network family %q (valid kinds: %s)",
			kind, strings.Join(Kinds(), ", "))
	}
	if fam.arity >= 0 && len(params) != fam.arity {
		return nil, fmt.Errorf("topology: %s takes %d parameter(s), got %d", kind, fam.arity, len(params))
	}
	var nw *Network
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("topology: %v", r)
			}
		}()
		nw = fam.build(params)
	}()
	if err != nil {
		return nil, err
	}
	return nw, nil
}

// ParseSpec parses the CLI network syntax "kind:p1,p2", e.g.
// "hypercube:3" or "mesh:4,4", and builds the network via ByName.
func ParseSpec(s string) (*Network, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("topology: bad network spec %q: must be kind:params, e.g. hypercube:3 or mesh:4,4 (valid kinds: %s)",
			s, strings.Join(Kinds(), ", "))
	}
	var params []int
	for _, p := range strings.Split(parts[1], ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("topology: bad network spec %q: parameter %q is not an integer", s, strings.TrimSpace(p))
		}
		params = append(params, v)
	}
	nw, err := ByName(parts[0], params...)
	if err != nil {
		return nil, fmt.Errorf("%w (in spec %q)", err, s)
	}
	return nw, nil
}
