package multilevel

// Uncoarsening with bounded local refinement: the partition computed on
// the coarsest level is projected down one level at a time, and at each
// level a few greedy sweeps move individual vertices to the adjacent
// cluster they talk to most. The gain of a move is the exact TotalIPC
// delta — (edge weight into the destination cluster) minus (edge weight
// into the current one) — i.e. precisely what internal/metrics would
// report before and after, computed incrementally. Moves are accepted
// only when the gain is strictly positive, the destination stays within
// the load target, and the source keeps at least one vertex (cluster
// ids must stay dense and covering for mapping.Validate and the check
// oracle).

// uncoarsen walks the hierarchy from the coarsest level back to the
// fine graph, refining after every projection (the coarsest level
// included: MWM-Contract's partition can usually still be improved
// locally). It returns the fine partition and the total move count.
func uncoarsen(levels []*level, cpart []int32, opt Options) ([]int, int, error) {
	k := 0
	for _, c := range cpart {
		if int(c) >= k {
			k = int(c) + 1
		}
	}
	bound := int32(opt.bound(levels[0].n))
	r := newRefiner(k)
	part := cpart
	moves := 0
	for li := len(levels) - 1; li >= 0; li-- {
		if li < len(levels)-1 {
			// Project: each level-li vertex inherits its coarse image's
			// cluster via the child level's cmap.
			cmap := levels[li+1].cmap
			proj := make([]int32, levels[li].n)
			for v := range proj {
				proj[v] = part[cmap[v]]
			}
			part = proj
		}
		if err := ctxErr(opt.Ctx); err != nil {
			return nil, 0, err
		}
		moves += r.refineLevel(levels[li], part, bound)
	}
	out := make([]int, len(part))
	for i, c := range part {
		out[i] = int(c)
	}
	return out, moves, nil
}

// refiner holds the per-cluster scratch reused across levels: cluster
// loads, vertex counts, and the marker-accumulator trio that gathers a
// vertex's connectivity to adjacent clusters without a map.
type refiner struct {
	k       int
	load    []int32 // fine tasks per cluster (vertex weights summed)
	count   []int32 // vertices per cluster at the current level
	conn    []float64
	seen    []int32
	gen     int32
	touched []int32
}

func newRefiner(k int) *refiner {
	return &refiner{
		k:       k,
		load:    make([]int32, k),
		count:   make([]int32, k),
		conn:    make([]float64, k),
		seen:    make([]int32, k),
		touched: make([]int32, 0, k),
	}
}

// refineLevel runs refinePasses greedy sweeps over lv in vertex index
// order. Deterministic: the visit order, the row order of the
// connectivity accumulation, and the smallest-id tie rule are all fixed
// regardless of Parallelism.
func (r *refiner) refineLevel(lv *level, part []int32, bound int32) int {
	for c := 0; c < r.k; c++ {
		r.load[c] = 0
		r.count[c] = 0
	}
	for v := 0; v < lv.n; v++ {
		r.load[part[v]] += lv.vw[v]
		r.count[part[v]]++
	}
	moves := 0
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for v := 0; v < lv.n; v++ {
			own := part[v]
			if r.count[own] == 1 {
				continue // never empty a cluster
			}
			// Gather v's edge weight per adjacent cluster.
			r.gen++
			r.touched = r.touched[:0]
			for i := lv.off[v]; i < lv.off[v+1]; i++ {
				c := part[lv.adj[i]]
				if r.seen[c] != r.gen {
					r.seen[c] = r.gen
					r.conn[c] = 0
					r.touched = append(r.touched, c)
				}
				r.conn[c] += lv.w[i]
			}
			internal := 0.0
			if r.seen[own] == r.gen {
				internal = r.conn[own]
			}
			best := int32(-1)
			bestW := internal // must strictly beat the current cluster
			for _, c := range r.touched {
				if c == own || r.load[c]+lv.vw[v] > bound {
					continue
				}
				if r.conn[c] > bestW || (r.conn[c] == bestW && best != -1 && c < best) {
					best, bestW = c, r.conn[c]
				}
			}
			if best == -1 {
				continue
			}
			part[v] = best
			r.load[own] -= lv.vw[v]
			r.load[best] += lv.vw[v]
			r.count[own]--
			r.count[best]++
			moved++
		}
		moves += moved
		if moved == 0 {
			break
		}
	}
	return moves
}
