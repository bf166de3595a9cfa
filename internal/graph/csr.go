package graph

// This file is the flat core of the collapsed static graph: the
// map-shaped views (a collapsed-weight map, per-call seen-sets) that
// dominated the pipeline's allocation profile are replaced by
// offset/adjacency arrays built once and shared by every hot caller
// (ROADMAP item 1).

//oregami:hot

import "oregami/internal/par"

// CSR is the collapsed static task graph in compressed-sparse-row form.
// Row v spans Adj[Off[v]:Off[v+1]]: the distinct neighbors of task v in
// ascending order, with W aligned slot for slot carrying the total
// undirected communication volume between the pair, accumulated in the
// flatWeights chain order (see the note there) so the floats are
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
// from, and its global position in phase-then-edge traversal order. seq
// makes (a, b, seq) a strict total order, so sorting is deterministic at
// every worker count, and the stable-by-construction (phase, edge) order
// within each pair reproduces the exact float addition sequence of the
// per-phase map accumulation the flat build replaced.
type triple struct {
	a, b  int32
	phase int32
	seq   int32
	w     float64
}

// collapseTriples gathers one triple per non-self directed edge of every
// phase, in phase-then-edge order, then sorts by (a, b, seq) on up to
// workers goroutines.
func (g *TaskGraph) collapseTriples(workers int) []triple {
	n := 0
	for _, p := range g.Comm {
		n += len(p.Edges)
	}
	ts := make([]triple, 0, n)
	seq := int32(0)
	for pi, p := range g.Comm {
		for _, e := range p.Edges {
			seq++
			if e.From == e.To {
				continue
			}
			a, b := int32(e.From), int32(e.To)
			if a > b {
				a, b = b, a
			}
			ts = append(ts, triple{a: a, b: b, phase: int32(pi), seq: seq, w: e.Weight})
		}
	}
	par.Sort(workers, ts, func(x, y triple) bool {
		if x.a != y.a {
			return x.a < y.a
		}
		if x.b != y.b {
			return x.b < y.b
		}
		return x.seq < y.seq
	})
	return ts
}

// foldTriples scans sorted triples and emits one CollapsedEntry per
// distinct pair. Within a pair, edge weights accumulate into a per-phase
// subtotal that is flushed into the pair total at each phase boundary —
// the exact addition order of the per-phase map merge this replaces, so
// every weight is bit-identical to the historical value.
func foldTriples(ts []triple, emit func(CollapsedEntry)) {
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
		emit(CollapsedEntry{A: int(a), B: int(b), W: total})
	}
}

// buildCSR constructs the CSR from the sorted entries.
func buildCSR(n int, entries []CollapsedEntry) *CSR {
	c := &CSR{N: n, Off: make([]int32, n+1)}
	for _, e := range entries {
		c.Off[e.A+1]++
		c.Off[e.B+1]++
	}
	for v := 0; v < n; v++ {
		c.Off[v+1] += c.Off[v]
	}
	c.Adj = make([]int32, len(entries)*2)
	c.W = make([]float64, len(entries)*2)
	next := make([]int32, n)
	copy(next, c.Off[:n])
	// Entries arrive sorted by (A, B). For a fixed row v, neighbors
	// u < v stream in ascending u (from entries (u, v) whose A = u < v
	// sort first), then neighbors u > v in ascending u (from entries
	// (v, u)) — each row fills already sorted, no per-row sort.
	for _, e := range entries {
		c.Adj[next[e.A]] = int32(e.B)
		c.W[next[e.A]] = e.W
		next[e.A]++
		c.Adj[next[e.B]] = int32(e.A)
		c.W[next[e.B]] = e.W
		next[e.B]++
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
	c := buildCSR(g.NumTasks, g.flatWeights())
	if g.csr.CompareAndSwap(nil, c) {
		return c
	}
	return g.csr.Load()
}
