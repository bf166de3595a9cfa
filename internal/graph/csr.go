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
// undirected communication volume between the pair, accumulated in the
// buildCSR chain order (see the note there) so the floats are
// bit-identical to the map-era Undirected values. A CSR is immutable
// once built and safe to share across goroutines.
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

// triple is one directed contribution to the collapsed graph during the
// CSR/entries build: the undirected pair (a < b), the comm phase it came
// from, and its weight. collapseTriples orders triples by (a, b) with
// stable passes, so within each pair they stay in phase-then-edge
// traversal order — the exact float addition sequence of the per-phase
// map accumulation the flat build replaced.
type triple struct {
	a, b  int32
	phase int32
	w     float64
}

// collapseTriples gathers one triple per non-self directed edge of every
// phase and orders them by (a, b) with two stable counting sorts, first
// by b, then by a, so each pair's triples keep phase-then-edge order.
// O(E + N) time. The buffers are fresh, not pooled: a pool keeps them
// live across garbage collections, which raised peak RSS on a 1e4-task
// stencil by ~6 MB, several times their size.
func (g *TaskGraph) collapseTriples() []triple {
	n := g.NumTasks
	starts := make([]int32, 2*(n+1))
	startA, startB := starts[:n+1], starts[n+1:]
	m := 0
	for _, p := range g.Comm {
		for _, e := range p.Edges {
			if e.From == e.To {
				continue
			}
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			startA[a+1]++
			startB[b+1]++
			m++
		}
	}
	for v := 0; v < n; v++ {
		startA[v+1] += startA[v]
		startB[v+1] += startB[v]
	}
	// Pass 1 scatters straight from the edge lists into b buckets, in
	// traversal order; pass 2 stably redistributes them into a buckets.
	byB := make([]triple, m)
	for pi, p := range g.Comm {
		for _, e := range p.Edges {
			if e.From == e.To {
				continue
			}
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			byB[startB[b]] = triple{a: int32(a), b: int32(b), phase: int32(pi), w: e.Weight}
			startB[b]++
		}
	}
	ts := make([]triple, m)
	for _, t := range byB {
		ts[startA[t.a]] = t
		startA[t.a]++
	}
	return ts
}

// foldTriples scans sorted triples and returns one CollapsedEntry per
// distinct pair. Within a pair, edge weights accumulate into a per-phase
// subtotal that is flushed into the pair total at each phase boundary —
// the exact addition order of the per-phase map merge this replaces, so
// every weight is bit-identical to the historical value.
func foldTriples(ts []triple) []CollapsedEntry {
	out := make([]CollapsedEntry, 0, len(ts))
	for i := 0; i < len(ts); {
		a, b := ts[i].a, ts[i].b
		var total float64
		for i < len(ts) && ts[i].a == a && ts[i].b == b {
			phase := ts[i].phase
			var sub float64
			for i < len(ts) && ts[i].a == a && ts[i].b == b && ts[i].phase == phase {
				sub += ts[i].w
				i++
			}
			total += sub
		}
		out = append(out, CollapsedEntry{A: int(a), B: int(b), W: total})
	}
	return out
}

// buildCSR constructs the CSR from the sorted triples, summing each
// pair's run in one chain over phase-then-edge order, the order of the
// historical map implementation.
//
// Accumulation order note: this chain order differs from foldTriples'
// (CollapsedEntries), which keeps the two-level per-phase-subtotal order
// of the historical parallel merge. The two can differ in the last ulp
// on non-integer weights, and callers were written against one or the
// other, so both orders are preserved exactly.
func buildCSR(n int, ts []triple) *CSR {
	c := &CSR{N: n, Off: make([]int32, n+1)}
	pairs := 0
	for i, t := range ts {
		if i == 0 || t.a != ts[i-1].a || t.b != ts[i-1].b {
			c.Off[t.a+1]++
			c.Off[t.b+1]++
			pairs++
		}
	}
	for v := 0; v < n; v++ {
		c.Off[v+1] += c.Off[v]
	}
	c.Adj = make([]int32, 2*pairs)
	c.W = make([]float64, 2*pairs)
	next := make([]int32, n)
	copy(next, c.Off[:n])
	// Pairs arrive sorted by (a, b). For a fixed row v, neighbors u < v
	// stream in ascending u (from pairs (u, v) whose a = u < v sort
	// first), then neighbors u > v in ascending u (from pairs (v, u)) —
	// each row fills already sorted, no per-row sort.
	for i := 0; i < len(ts); {
		a, b := ts[i].a, ts[i].b
		var total float64
		for i < len(ts) && ts[i].a == a && ts[i].b == b {
			total += ts[i].w
			i++
		}
		c.Adj[next[a]] = b
		c.W[next[a]] = total
		next[a]++
		c.Adj[next[b]] = a
		c.W[next[b]] = total
		next[b]++
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
	c := buildCSR(g.NumTasks, g.collapseTriples())
	if g.csr.CompareAndSwap(nil, c) {
		return c
	}
	return g.csr.Load()
}
