package multilevel

import (
	"context"

	"oregami/internal/graph"
	"oregami/internal/matching"
)

// level is one rung of the coarsening hierarchy. Level 0 aliases the
// task graph's CSR arrays directly (zero copies); every deeper level
// owns its arrays. Rows are not sorted by neighbor id — nothing in the
// engine needs them sorted — but their order is a pure function of the
// level above, so the whole hierarchy is deterministic.
type level struct {
	// n is the vertex count of this level.
	n int
	// off/adj/w is the symmetric weighted adjacency in CSR form:
	// vertex v's neighbors are adj[off[v]:off[v+1]].
	off []int32
	adj []int32
	w   []float64
	// vw[v] counts the fine (level-0) tasks aggregated into v.
	vw []int32
	// cmap projects the parent level's vertices onto this one:
	// cmap[parent vertex] = vertex here. Nil at level 0.
	cmap []int32
}

// totalW returns the total undirected edge weight of the level; each
// pair is stored twice, summed in slot order then halved, which is
// exact for the integral weights the generators emit.
func (lv *level) totalW() float64 {
	s := 0.0
	for _, x := range lv.w {
		s += x
	}
	return s / 2
}

// coarsen builds the level hierarchy: heavy-edge match, contract,
// repeat, until the graph is small enough for the exact MWM-Contract
// pipeline, the level cap is reached, or matching stops making
// progress. The returned slice always has the fine graph at index 0.
func coarsen(g *graph.TaskGraph, opt Options) ([]*level, error) {
	c := g.CSR()
	n := g.NumTasks
	vw0 := make([]int32, n)
	for i := range vw0 {
		vw0[i] = 1
	}
	levels := []*level{{n: n, off: c.Off, adj: c.Adj, w: c.W, vw: vw0}}
	target := opt.coarsenTarget()
	maxVW := opt.maxVertexWeight(n)
	mate := make([]int32, n)
	for len(levels) < maxLevels {
		cur := levels[len(levels)-1]
		if cur.n <= target {
			break
		}
		if err := ctxErr(opt.Ctx); err != nil {
			return nil, err
		}
		mate = mate[:cur.n]
		pairs := matching.HeavyEdgeCSR(cur.n, cur.off, cur.adj, cur.w, cur.vw, maxVW, mate)
		// Diminishing returns: when under 2% of vertices pair up, more
		// rounds only burn time (isolated or saturated vertices).
		if pairs*50 < cur.n {
			break
		}
		levels = append(levels, contractLevel(cur, mate, pairs))
	}
	return levels, nil
}

// contractLevel folds matched pairs of cur into a coarse level. Coarse
// ids are assigned in fine index order (a pair takes the id of its
// smaller endpoint's visit), so the contraction is deterministic.
func contractLevel(cur *level, mate []int32, pairs int) *level {
	nc := cur.n - pairs
	cmap := make([]int32, cur.n)
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for v := 0; v < cur.n; v++ {
		if cmap[v] != -1 {
			continue
		}
		cmap[v] = next
		if m := mate[v]; m != -1 {
			cmap[m] = next
		}
		next++
	}

	// members[2c], members[2c+1]: the one or two fine vertices of coarse
	// vertex c (-1 when single).
	members := make([]int32, 2*nc)
	for i := range members {
		members[i] = -1
	}
	vwc := make([]int32, nc)
	for v := 0; v < cur.n; v++ {
		c := cmap[v]
		if members[2*c] == -1 {
			members[2*c] = int32(v)
		} else {
			members[2*c+1] = int32(v)
		}
		vwc[c] += cur.vw[v]
	}

	// Two passes with a marker array: count distinct coarse neighbors,
	// then fill rows, accumulating parallel-edge weights in encounter
	// order (fine slot order within members in id order — fixed, so the
	// sums are bit-stable).
	marker := make([]int32, nc)
	for i := range marker {
		marker[i] = -1
	}
	offc := make([]int32, nc+1)
	for c := int32(0); c < int32(nc); c++ {
		deg := int32(0)
		for s := 0; s < 2; s++ {
			v := members[2*c+int32(s)]
			if v == -1 {
				break
			}
			for i := cur.off[v]; i < cur.off[v+1]; i++ {
				cu := cmap[cur.adj[i]]
				if cu == c || marker[cu] == c {
					continue
				}
				marker[cu] = c
				deg++
			}
		}
		offc[c+1] = offc[c] + deg
	}
	adjc := make([]int32, offc[nc])
	wc := make([]float64, offc[nc])
	// pos[cu] remembers where coarse neighbor cu landed in c's row.
	pos := marker
	for i := range pos {
		pos[i] = -1
	}
	fill := make([]int32, nc)
	copy(fill, offc[:nc])
	for c := int32(0); c < int32(nc); c++ {
		rowStart := offc[c]
		for s := 0; s < 2; s++ {
			v := members[2*c+int32(s)]
			if v == -1 {
				break
			}
			for i := cur.off[v]; i < cur.off[v+1]; i++ {
				cu := cmap[cur.adj[i]]
				if cu == c {
					continue
				}
				if p := pos[cu]; p >= rowStart && p < fill[c] && adjc[p] == cu {
					wc[p] += cur.w[i]
					continue
				}
				adjc[fill[c]] = cu
				wc[fill[c]] = cur.w[i]
				pos[cu] = fill[c]
				fill[c]++
			}
		}
	}
	return &level{n: nc, off: offc, adj: adjc, w: wc, vw: vwc, cmap: cmap}
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
