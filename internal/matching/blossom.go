// Package matching provides the combinatorial matching algorithms that
// power OREGAMI's MAPPER: maximum-weight matching on general graphs (the
// engine of Algorithm MWM-Contract, Section 4.3 of the paper), and greedy
// maximal / Hopcroft-Karp maximum matching on bipartite graphs (the
// engine of Algorithm MM-Route, Section 4.4).
package matching

// WEdge is an undirected weighted edge between vertices I and J.
// Weights should be integral-valued (the contraction and routing callers
// use message counts/volumes); the blossom algorithm's dual updates are
// then exact in float64.
type WEdge struct {
	I, J   int
	Weight float64
}

// MaxWeightMatching computes a maximum-weight matching on a general
// (non-bipartite) graph with n vertices, using Galil's O(n^3) primal-dual
// blossom algorithm. It returns mate where mate[v] is the vertex matched
// to v, or -1 if v is unmatched.
//
// If maxCardinality is true, the matching is restricted to maximum
// cardinality matchings of maximum weight.
//
// Self-loops are ignored; duplicate edges are permitted (the heaviest
// effectively wins). Negative-weight edges are never used unless
// maxCardinality forces them.
func MaxWeightMatching(n int, edges []WEdge, maxCardinality bool) []int {
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	var clean []WEdge
	for _, e := range edges {
		if e.I == e.J {
			continue
		}
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n {
			panic("matching: edge endpoint out of range")
		}
		clean = append(clean, e)
	}
	if len(clean) == 0 {
		return mate
	}
	b := newBlossomState(n, clean, maxCardinality)
	b.solve()
	copy(mate, b.vertexMates())
	return mate
}

// MatchingWeight sums the weights of matched edges under mate, counting
// each pair once. It uses the maximum weight among parallel edges.
func MatchingWeight(mate []int, edges []WEdge) float64 {
	best := make(map[[2]int]float64)
	for _, e := range edges {
		a, b := e.I, e.J
		if a > b {
			a, b = b, a
		}
		if w, ok := best[[2]int{a, b}]; !ok || e.Weight > w {
			best[[2]int{a, b}] = e.Weight
		}
	}
	var total float64
	for v, m := range mate {
		if m > v {
			total += best[[2]int{v, m}]
		}
	}
	return total
}

// blossomState carries the primal-dual machinery. The encoding follows
// the standard array formulation: edge k has endpoints 2k and 2k+1;
// endpoint p belongs to vertex endpoint[p]; vertices are 0..n-1 and
// blossom ids are n..2n-1.
type blossomState struct {
	n       int
	edges   []WEdge
	maxCard bool

	endpoint  []int   // endpoint[p] = vertex of endpoint p
	neighbend [][]int // neighbend[v] = remote endpoints of v's edges

	mate     []int // mate[v] = remote endpoint of matched edge or -1
	label    []int // 0 free, 1 S, 2 T (indexed by vertex or blossom)
	labelEnd []int // endpoint through which the label was obtained

	inBlossom     []int   // top-level blossom of each vertex
	blossomParent []int   // immediate parent blossom or -1
	blossomChilds [][]int // ordered sub-blossoms
	blossomBase   []int   // base vertex of each blossom
	blossomEndps  [][]int // endpoints of edges connecting sub-blossoms

	bestEdge         []int   // least-slack edge to a different S-blossom
	blossomBestEdges [][]int // per top-level S-blossom: least-slack edge list
	unusedBlossoms   []int
	dualVar          []float64
	allowEdge        []bool
	queue            []int
}

func newBlossomState(n int, edges []WEdge, maxCard bool) *blossomState {
	ne := len(edges)
	s := &blossomState{n: n, edges: edges, maxCard: maxCard}
	var maxWeight float64
	for _, e := range edges {
		if e.Weight > maxWeight {
			maxWeight = e.Weight
		}
	}
	s.endpoint = make([]int, 2*ne)
	for p := range s.endpoint {
		if p%2 == 0 {
			s.endpoint[p] = edges[p/2].I
		} else {
			s.endpoint[p] = edges[p/2].J
		}
	}
	s.neighbend = make([][]int, n)
	for k, e := range edges {
		s.neighbend[e.I] = append(s.neighbend[e.I], 2*k+1)
		s.neighbend[e.J] = append(s.neighbend[e.J], 2*k)
	}
	s.mate = filled(n, -1)
	s.label = make([]int, 2*n)
	s.labelEnd = filled(2*n, -1)
	s.inBlossom = iota2(n)
	s.blossomParent = filled(2*n, -1)
	s.blossomChilds = make([][]int, 2*n)
	s.blossomBase = append(iota2(n), filled(n, -1)...)
	s.blossomEndps = make([][]int, 2*n)
	s.bestEdge = filled(2*n, -1)
	s.blossomBestEdges = make([][]int, 2*n)
	s.unusedBlossoms = make([]int, 0, n)
	for b := n; b < 2*n; b++ {
		s.unusedBlossoms = append(s.unusedBlossoms, b)
	}
	s.dualVar = make([]float64, 2*n)
	for v := 0; v < n; v++ {
		s.dualVar[v] = maxWeight
	}
	s.allowEdge = make([]bool, ne)
	return s
}

func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func iota2(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// slack returns the reduced cost 2*slack of edge k: pi_i + pi_j - 2w.
func (s *blossomState) slack(k int) float64 {
	e := s.edges[k]
	return s.dualVar[e.I] + s.dualVar[e.J] - 2*e.Weight
}

// blossomLeaves appends to out all vertices in blossom b.
func (s *blossomState) blossomLeaves(b int, out []int) []int {
	if b < s.n {
		return append(out, b)
	}
	for _, t := range s.blossomChilds[b] {
		out = s.blossomLeaves(t, out)
	}
	return out
}

// assignLabel gives blossom containing w label t, reached via endpoint p.
func (s *blossomState) assignLabel(w, t, p int) {
	b := s.inBlossom[w]
	s.label[w] = t
	s.label[b] = t
	s.labelEnd[w] = p
	s.labelEnd[b] = p
	s.bestEdge[w] = -1
	s.bestEdge[b] = -1
	if t == 1 {
		s.queue = s.blossomLeaves(b, s.queue)
	} else if t == 2 {
		base := s.blossomBase[b]
		s.assignLabel(s.endpoint[s.mate[base]], 1, s.mate[base]^1)
	}
}

// scanBlossom traces back from v and w to find either a common ancestor
// base vertex (returning it) or an augmenting path (returning -1).
func (s *blossomState) scanBlossom(v, w int) int {
	var path []int
	base := -1
	for v != -1 || w != -1 {
		b := s.inBlossom[v]
		if s.label[b]&4 != 0 {
			base = s.blossomBase[b]
			break
		}
		path = append(path, b)
		s.label[b] = 5
		if s.labelEnd[b] == -1 {
			v = -1
		} else {
			v = s.endpoint[s.labelEnd[b]]
			b = s.inBlossom[v]
			v = s.endpoint[s.labelEnd[b]]
		}
		if w != -1 {
			v, w = w, v
		}
	}
	for _, b := range path {
		s.label[b] = 1
	}
	return base
}

// addBlossom constructs a new blossom with the given base, through edge k
// whose endpoints are both in S-blossoms.
func (s *blossomState) addBlossom(base, k int) {
	v, w := s.edges[k].I, s.edges[k].J
	bb := s.inBlossom[base]
	bv := s.inBlossom[v]
	bw := s.inBlossom[w]
	b := s.unusedBlossoms[len(s.unusedBlossoms)-1]
	s.unusedBlossoms = s.unusedBlossoms[:len(s.unusedBlossoms)-1]
	s.blossomBase[b] = base
	s.blossomParent[b] = -1
	s.blossomParent[bb] = b
	var path, endps []int
	for bv != bb {
		s.blossomParent[bv] = b
		path = append(path, bv)
		endps = append(endps, s.labelEnd[bv])
		v = s.endpoint[s.labelEnd[bv]]
		bv = s.inBlossom[v]
	}
	path = append(path, bb)
	reverse(path)
	reverse(endps)
	endps = append(endps, 2*k)
	for bw != bb {
		s.blossomParent[bw] = b
		path = append(path, bw)
		endps = append(endps, s.labelEnd[bw]^1)
		w = s.endpoint[s.labelEnd[bw]]
		bw = s.inBlossom[w]
	}
	s.blossomChilds[b] = path
	s.blossomEndps[b] = endps
	s.label[b] = 1
	s.labelEnd[b] = s.labelEnd[bb]
	s.dualVar[b] = 0
	for _, lv := range s.blossomLeaves(b, nil) {
		if s.label[s.inBlossom[lv]] == 2 {
			s.queue = append(s.queue, lv)
		}
		s.inBlossom[lv] = b
	}
	// Compute the new blossom's least-slack edges to other S-blossoms.
	bestEdgeTo := filled(2*s.n, -1)
	for _, sub := range path {
		var nblists [][]int
		if s.blossomBestEdges[sub] == nil {
			for _, lv := range s.blossomLeaves(sub, nil) {
				list := make([]int, 0, len(s.neighbend[lv]))
				for _, p := range s.neighbend[lv] {
					list = append(list, p/2)
				}
				nblists = append(nblists, list)
			}
		} else {
			nblists = [][]int{s.blossomBestEdges[sub]}
		}
		for _, nblist := range nblists {
			for _, ek := range nblist {
				j := s.edges[ek].J
				if s.inBlossom[j] == b {
					j = s.edges[ek].I
				}
				bj := s.inBlossom[j]
				if bj != b && s.label[bj] == 1 &&
					(bestEdgeTo[bj] == -1 || s.slack(ek) < s.slack(bestEdgeTo[bj])) {
					bestEdgeTo[bj] = ek
				}
			}
		}
		s.blossomBestEdges[sub] = nil
		s.bestEdge[sub] = -1
	}
	var kept []int
	for _, ek := range bestEdgeTo {
		if ek != -1 {
			kept = append(kept, ek)
		}
	}
	s.blossomBestEdges[b] = kept
	s.bestEdge[b] = -1
	for _, ek := range kept {
		if s.bestEdge[b] == -1 || s.slack(ek) < s.slack(s.bestEdge[b]) {
			s.bestEdge[b] = ek
		}
	}
}

// expandBlossom dissolves blossom b, upgrading its sub-blossoms to
// top-level. During a stage (endStage false) the T-blossom's sub-blossoms
// are relabeled.
func (s *blossomState) expandBlossom(b int, endStage bool) {
	for _, sub := range s.blossomChilds[b] {
		s.blossomParent[sub] = -1
		if sub < s.n {
			s.inBlossom[sub] = sub
		} else if endStage && s.dualVar[sub] == 0 {
			s.expandBlossom(sub, endStage)
		} else {
			for _, lv := range s.blossomLeaves(sub, nil) {
				s.inBlossom[lv] = sub
			}
		}
	}
	if !endStage && s.label[b] == 2 {
		entryChild := s.inBlossom[s.endpoint[s.labelEnd[b]^1]]
		j := indexOf(s.blossomChilds[b], entryChild)
		var jstep, endpTrick int
		if j&1 != 0 {
			j -= len(s.blossomChilds[b])
			jstep = 1
			endpTrick = 0
		} else {
			jstep = -1
			endpTrick = 1
		}
		p := s.labelEnd[b]
		for j != 0 {
			s.label[s.endpoint[p^1]] = 0
			s.label[s.endpoint[at(s.blossomEndps[b], j-endpTrick)^endpTrick^1]] = 0
			s.assignLabel(s.endpoint[p^1], 2, p)
			s.allowEdge[at(s.blossomEndps[b], j-endpTrick)/2] = true
			j += jstep
			p = at(s.blossomEndps[b], j-endpTrick) ^ endpTrick
			s.allowEdge[p/2] = true
			j += jstep
		}
		bv := at(s.blossomChilds[b], j)
		s.label[s.endpoint[p^1]] = 2
		s.label[bv] = 2
		s.labelEnd[s.endpoint[p^1]] = p
		s.labelEnd[bv] = p
		s.bestEdge[bv] = -1
		j += jstep
		for at(s.blossomChilds[b], j) != entryChild {
			bv = at(s.blossomChilds[b], j)
			if s.label[bv] == 1 {
				j += jstep
				continue
			}
			var reached int = -1
			for _, lv := range s.blossomLeaves(bv, nil) {
				if s.label[lv] != 0 {
					reached = lv
					break
				}
			}
			if reached >= 0 {
				s.label[reached] = 0
				s.label[s.endpoint[s.mate[s.blossomBase[bv]]]] = 0
				s.assignLabel(reached, 2, s.labelEnd[reached])
			}
			j += jstep
		}
	}
	s.label[b] = -1
	s.labelEnd[b] = -1
	s.blossomChilds[b] = nil
	s.blossomEndps[b] = nil
	s.blossomBase[b] = -1
	s.blossomBestEdges[b] = nil
	s.bestEdge[b] = -1
	s.unusedBlossoms = append(s.unusedBlossoms, b)
}

// augmentBlossom swaps matched/unmatched edges over the alternating path
// through blossom b between vertex v and the base vertex.
func (s *blossomState) augmentBlossom(b, v int) {
	t := v
	for s.blossomParent[t] != b {
		t = s.blossomParent[t]
	}
	if t >= s.n {
		s.augmentBlossom(t, v)
	}
	i := indexOf(s.blossomChilds[b], t)
	j := i
	var jstep, endpTrick int
	if i&1 != 0 {
		j -= len(s.blossomChilds[b])
		jstep = 1
		endpTrick = 0
	} else {
		jstep = -1
		endpTrick = 1
	}
	for j != 0 {
		j += jstep
		t = at(s.blossomChilds[b], j)
		p := at(s.blossomEndps[b], j-endpTrick) ^ endpTrick
		if t >= s.n {
			s.augmentBlossom(t, s.endpoint[p])
		}
		j += jstep
		t = at(s.blossomChilds[b], j)
		if t >= s.n {
			s.augmentBlossom(t, s.endpoint[p^1])
		}
		s.mate[s.endpoint[p]] = p ^ 1
		s.mate[s.endpoint[p^1]] = p
	}
	s.blossomChilds[b] = rotate(s.blossomChilds[b], i)
	s.blossomEndps[b] = rotate(s.blossomEndps[b], i)
	s.blossomBase[b] = s.blossomBase[s.blossomChilds[b][0]]
}

// augmentMatching augments along the path through edge k, which joins two
// S-vertices in different trees (or the same tree without a blossom).
func (s *blossomState) augmentMatching(k int) {
	v, w := s.edges[k].I, s.edges[k].J
	for _, se := range [2][2]int{{v, 2*k + 1}, {w, 2 * k}} {
		sv, p := se[0], se[1]
		for {
			bs := s.inBlossom[sv]
			if bs >= s.n {
				s.augmentBlossom(bs, sv)
			}
			s.mate[sv] = p
			if s.labelEnd[bs] == -1 {
				break
			}
			t := s.endpoint[s.labelEnd[bs]]
			bt := s.inBlossom[t]
			sv = s.endpoint[s.labelEnd[bt]]
			j := s.endpoint[s.labelEnd[bt]^1]
			if bt >= s.n {
				s.augmentBlossom(bt, j)
			}
			s.mate[j] = s.labelEnd[bt]
			p = s.labelEnd[bt] ^ 1
		}
	}
}

// solve runs the stages of the primal-dual method.
func (s *blossomState) solve() {
	n := s.n
	for stage := 0; stage < n; stage++ {
		for i := range s.label {
			s.label[i] = 0
		}
		for i := range s.bestEdge {
			s.bestEdge[i] = -1
		}
		// A freed blossom's list is already nil, so with none live the
		// reset is a no-op.
		if s.anyBlossom() {
			for b := n; b < 2*n; b++ {
				s.blossomBestEdges[b] = nil
			}
		}
		for i := range s.allowEdge {
			s.allowEdge[i] = false
		}
		s.queue = s.queue[:0]
		for v := 0; v < n; v++ {
			if s.mate[v] == -1 && s.label[s.inBlossom[v]] == 0 {
				s.assignLabel(v, 1, -1)
			}
		}
		augmented := false
		for {
			for len(s.queue) > 0 && !augmented {
				v := s.queue[len(s.queue)-1]
				s.queue = s.queue[:len(s.queue)-1]
				for _, p := range s.neighbend[v] {
					k := p / 2
					w := s.endpoint[p]
					if s.inBlossom[v] == s.inBlossom[w] {
						continue
					}
					var kslack float64
					if !s.allowEdge[k] {
						kslack = s.slack(k)
						if kslack <= 0 {
							s.allowEdge[k] = true
						}
					}
					if s.allowEdge[k] {
						switch {
						case s.label[s.inBlossom[w]] == 0:
							s.assignLabel(w, 2, p^1)
						case s.label[s.inBlossom[w]] == 1:
							base := s.scanBlossom(v, w)
							if base >= 0 {
								s.addBlossom(base, k)
							} else {
								s.augmentMatching(k)
								augmented = true
							}
						case s.label[w] == 0:
							s.label[w] = 2
							s.labelEnd[w] = p ^ 1
						}
						if augmented {
							break
						}
					} else if s.label[s.inBlossom[w]] == 1 {
						b := s.inBlossom[v]
						if s.bestEdge[b] == -1 || kslack < s.slack(s.bestEdge[b]) {
							s.bestEdge[b] = k
						}
					} else if s.label[w] == 0 {
						if s.bestEdge[w] == -1 || kslack < s.slack(s.bestEdge[w]) {
							s.bestEdge[w] = k
						}
					}
				}
			}
			if augmented {
				break
			}
			// No augmenting path under the current duals: compute the
			// least delta over the four constraint families.
			deltaType := -1
			var delta float64
			deltaEdge, deltaBlossom := -1, -1
			if !s.maxCard {
				deltaType = 1
				delta = s.minVertexDual()
			}
			for v := 0; v < n; v++ {
				if s.label[s.inBlossom[v]] == 0 && s.bestEdge[v] != -1 {
					d := s.slack(s.bestEdge[v])
					if deltaType == -1 || d < delta {
						delta = d
						deltaType = 2
						deltaEdge = s.bestEdge[v]
					}
				}
			}
			for b := 0; b < 2*n; b++ {
				if s.blossomParent[b] == -1 && s.label[b] == 1 && s.bestEdge[b] != -1 {
					d := s.slack(s.bestEdge[b]) / 2
					if deltaType == -1 || d < delta {
						delta = d
						deltaType = 3
						deltaEdge = s.bestEdge[b]
					}
				}
			}
			for b := n; b < 2*n; b++ {
				if s.blossomBase[b] >= 0 && s.blossomParent[b] == -1 && s.label[b] == 2 &&
					(deltaType == -1 || s.dualVar[b] < delta) {
					delta = s.dualVar[b]
					deltaType = 4
					deltaBlossom = b
				}
			}
			if deltaType == -1 {
				// No further improvement possible; max-cardinality optimum.
				deltaType = 1
				delta = s.minVertexDual()
				if delta < 0 {
					delta = 0
				}
			}
			for v := 0; v < n; v++ {
				switch s.label[s.inBlossom[v]] {
				case 1:
					s.dualVar[v] -= delta
				case 2:
					s.dualVar[v] += delta
				}
			}
			for b := n; b < 2*n; b++ {
				if s.blossomBase[b] >= 0 && s.blossomParent[b] == -1 {
					switch s.label[b] {
					case 1:
						s.dualVar[b] += delta
					case 2:
						s.dualVar[b] -= delta
					}
				}
			}
			switch deltaType {
			case 1:
				// Optimum reached.
			case 2:
				s.allowEdge[deltaEdge] = true
				i := s.edges[deltaEdge].I
				if s.label[s.inBlossom[i]] == 0 {
					i = s.edges[deltaEdge].J
				}
				s.queue = append(s.queue, i)
			case 3:
				s.allowEdge[deltaEdge] = true
				s.queue = append(s.queue, s.edges[deltaEdge].I)
			case 4:
				s.expandBlossom(deltaBlossom, false)
			}
			if deltaType == 1 {
				break
			}
		}
		if !augmented {
			break
		}
		// End of stage: expand zero-dual top-level S-blossoms. Most
		// stages of a sparse matching build none, so skip the scan then.
		if !s.anyBlossom() {
			continue
		}
		for b := n; b < 2*n; b++ {
			if s.blossomParent[b] == -1 && s.blossomBase[b] >= 0 &&
				s.label[b] == 1 && s.dualVar[b] == 0 {
				s.expandBlossom(b, true)
			}
		}
	}
}

// anyBlossom reports whether some blossom id n..2n-1 is in use.
func (s *blossomState) anyBlossom() bool { return len(s.unusedBlossoms) < s.n }

func (s *blossomState) minVertexDual() float64 {
	m := s.dualVar[0]
	for v := 1; v < s.n; v++ {
		if s.dualVar[v] < m {
			m = s.dualVar[v]
		}
	}
	return m
}

// vertexMates converts the endpoint-encoded mates to vertex ids.
func (s *blossomState) vertexMates() []int {
	out := make([]int, s.n)
	for v := 0; v < s.n; v++ {
		if s.mate[v] >= 0 {
			out[v] = s.endpoint[s.mate[v]]
		} else {
			out[v] = -1
		}
	}
	return out
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	panic("matching: element not found in blossom child list")
}

// at indexes with Python-style negative wraparound, which the blossom
// traversals rely on.
func at(s []int, i int) int {
	if i < 0 {
		i += len(s)
	}
	return s[i]
}

func rotate(s []int, i int) []int {
	return append(append([]int(nil), s[i:]...), s[:i]...)
}
