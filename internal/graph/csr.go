package graph

// This file is the flat core of the collapsed static graph: the
// map-shaped views (a collapsed-weight map, per-call seen-sets) that
// dominated the pipeline's allocation profile are replaced by
// offset/adjacency arrays built once and shared by every hot caller
// (ROADMAP item 1).

//oregami:hot

// CSR is the collapsed static task graph in compressed-sparse-row form.
// Row v spans Adj[Off[v]:Off[v+1]]: the distinct neighbors of task v in
// ascending order, with W aligned slot for slot carrying the total
// undirected communication volume between the pair, summed by FoldTerms
// so the floats are bit-identical to the map-era Undirected values. A
// CSR is immutable once built and safe to share across goroutines.
type CSR struct {
	// N is the number of tasks (rows).
	N int
	// Off has N+1 entries; row v is Adj[Off[v]:Off[v+1]].
	Off []int32
	// Adj holds neighbor task ids, ascending within each row.
	Adj []int32
	// W holds the collapsed pair weight for the matching Adj slot. The
	// weight appears on both directed rows of the pair.
	W []float64
}

// Neighbors returns task v's neighbor row. The slice aliases the CSR;
// callers must not modify it.
func (c *CSR) Neighbors(v int) []int32 { return c.Adj[c.Off[v]:c.Off[v+1]] }

// RowWeights returns the weights aligned with Neighbors(v). The slice
// aliases the CSR; callers must not modify it.
func (c *CSR) RowWeights(v int) []float64 { return c.W[c.Off[v]:c.Off[v+1]] }

// Degree returns the number of distinct collapsed-graph neighbors of v.
func (c *CSR) Degree(v int) int { return int(c.Off[v+1] - c.Off[v]) }

// WeightBetween returns the collapsed weight between tasks a and b and
// whether the pair is connected, by binary search on a's row.
func (c *CSR) WeightBetween(a, b int) (float64, bool) {
	lo, hi := int(c.Off[a]), int(c.Off[a+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(c.Adj[mid]) < b:
			lo = mid + 1
		case int(c.Adj[mid]) > b:
			hi = mid
		default:
			return c.W[mid], true
		}
	}
	return 0, false
}

// NumPairs returns the number of undirected collapsed edges.
func (c *CSR) NumPairs() int { return len(c.Adj) / 2 }

// Term is one weighted contribution to an (A, B) pair: a task pair of
// the collapsed graph, with the comm phase it came from, or a cluster
// pair of a cluster graph. Every builder of such a graph sorts its terms
// with SortTerms and sums them with FoldTerms (CollapsedEntries: with
// foldPhases), so each adds its floats in an order fixed here.
type Term struct {
	A, B  int32
	Phase int32
	W     float64
}

// SortTerms orders ts by (A, B) in place with two stable counting
// sorts, first by B, then by A, so each pair's terms keep their input
// order. Every id must lie in [0, n). O(len(ts) + n) time. The second
// buffer and the counts are fresh, not pooled: a pool keeps them live
// across garbage collections, which raised peak RSS on a 1e4-task
// stencil by ~6 MB, several times their size.
func SortTerms(ts []Term, n int) {
	if len(ts) < 2 {
		return
	}
	starts := make([]int32, 2*(n+1))
	startA, startB := starts[:n+1], starts[n+1:]
	for _, t := range ts {
		startA[t.A+1]++
		startB[t.B+1]++
	}
	for v := 0; v < n; v++ {
		startA[v+1] += startA[v]
		startB[v+1] += startB[v]
	}
	byB := make([]Term, len(ts))
	for _, t := range ts {
		byB[startB[t.B]] = t
		startB[t.B]++
	}
	for _, t := range byB {
		ts[startA[t.A]] = t
		startA[t.A]++
	}
}

// FoldTerms sums each run of equal (A, B) in ts, sorted by SortTerms,
// in one addition chain from zero in input order, and compacts the sums
// to the front: it returns ts[:pairs], one term per distinct pair,
// ascending by (A, B), each keeping its run's first Phase. The historical
// map accumulations (pair by pair, `w[pair] += term`) added in exactly
// this order, so the sums are bit-identical to theirs.
func FoldTerms(ts []Term) []Term {
	out := ts[:0]
	for i := 0; i < len(ts); {
		t := ts[i]
		var w float64
		for ; i < len(ts) && ts[i].A == t.A && ts[i].B == t.B; i++ {
			w += ts[i].W
		}
		t.W = w
		out = append(out, t)
	}
	return out
}

// collapseTerms gathers one term per non-self directed edge of every
// phase, on the undirected pair (a < b), and sorts them, so each pair's
// terms keep phase-then-edge traversal order.
func (g *TaskGraph) collapseTerms() []Term {
	m := 0
	for _, p := range g.Comm {
		m += len(p.Edges)
	}
	ts := make([]Term, 0, m)
	for pi, p := range g.Comm {
		for _, e := range p.Edges {
			if e.From == e.To {
				continue
			}
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			ts = append(ts, Term{A: int32(a), B: int32(b), Phase: int32(pi), W: e.Weight})
		}
	}
	SortTerms(ts, g.NumTasks)
	return ts
}

// foldPhases scans sorted terms and returns one CollapsedEntry per
// distinct pair. Within a pair, edge weights accumulate into a per-phase
// subtotal that is flushed into the pair total at each phase boundary —
// the exact addition order of the per-phase map merge this replaces, so
// every weight is bit-identical to the historical value.
//
// Accumulation order note: this order differs from FoldTerms' single
// chain, which the CSR uses. The two can differ in the last ulp on
// non-integer weights, and callers were written against one or the
// other, so both orders are preserved exactly.
func foldPhases(ts []Term) []CollapsedEntry {
	out := make([]CollapsedEntry, 0, len(ts))
	for i := 0; i < len(ts); {
		a, b := ts[i].A, ts[i].B
		var total float64
		for i < len(ts) && ts[i].A == a && ts[i].B == b {
			phase := ts[i].Phase
			var sub float64
			for i < len(ts) && ts[i].A == a && ts[i].B == b && ts[i].Phase == phase {
				sub += ts[i].W
				i++
			}
			total += sub
		}
		out = append(out, CollapsedEntry{A: int(a), B: int(b), W: total})
	}
	return out
}

// buildCSR constructs the CSR from the folded pairs (FoldTerms over the
// collapsed terms).
func buildCSR(n int, pairs []Term) *CSR {
	c := &CSR{N: n, Off: make([]int32, n+1)}
	for _, t := range pairs {
		c.Off[t.A+1]++
		c.Off[t.B+1]++
	}
	for v := 0; v < n; v++ {
		c.Off[v+1] += c.Off[v]
	}
	c.Adj = make([]int32, 2*len(pairs))
	c.W = make([]float64, 2*len(pairs))
	next := make([]int32, n)
	copy(next, c.Off[:n])
	// Pairs arrive sorted by (a, b). For a fixed row v, neighbors u < v
	// stream in ascending u (from pairs (u, v) whose a = u < v sort
	// first), then neighbors u > v in ascending u (from pairs (v, u)) —
	// each row fills already sorted, no per-row sort.
	for _, t := range pairs {
		c.Adj[next[t.A]] = t.B
		c.W[next[t.A]] = t.W
		next[t.A]++
		c.Adj[next[t.B]] = t.A
		c.W[next[t.B]] = t.W
		next[t.B]++
	}
	return c
}

// CSR returns the collapsed static graph in flat form, building and
// caching it on first use. Mutating the graph (AddEdge, AddCommPhase)
// invalidates the cache; mutation must not race with any reader. First
// calls may race with each other: each builds the same CSR, and every
// caller gets the one published first.
func (g *TaskGraph) CSR() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c := buildCSR(g.NumTasks, FoldTerms(g.collapseTerms()))
	if g.csr.CompareAndSwap(nil, c) {
		return c
	}
	return g.csr.Load()
}
