package embed

import (
	"context"

	"oregami/internal/graph"
	"oregami/internal/topology"
)

// SwapRefine improves an embedding by pairwise-exchange local search, the
// strategy of Bokhari's classic mapping heuristic (cited by the paper in
// Section 2): repeatedly try swapping the processors of two clusters (or
// moving a cluster to a free processor) and keep any change that lowers
// the total weight x distance objective. It runs until a full sweep
// yields no improvement or maxSweeps is exhausted, and returns the
// improved placement (the input slice is modified in place) plus the
// number of improving moves applied. It checks ctx before every
// cluster's row of candidate processors and returns ctx.Err() once the
// context is done; a live context never changes the result.
func SwapRefine(ctx context.Context, cg *graph.TaskGraph, net *topology.Network, place []int, maxSweeps int) ([]int, int, error) {
	k := cg.NumTasks
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
	}
	csr := cg.CSR()
	for a := 0; a < k; a++ {
		nbrs := csr.Neighbors(a)
		ws := csr.RowWeights(a)
		for i, b := range nbrs {
			w[a][b] = ws[i]
		}
	}
	clusterAt := make([]int, net.N)
	for i := range clusterAt {
		clusterAt[i] = -1
	}
	for c, p := range place {
		clusterAt[p] = c
	}
	// cost of cluster c when placed on processor p (other placements
	// fixed, excluding edges to d if exclude == d).
	costAt := func(c, p, exclude int) float64 {
		total := 0.0
		for d := 0; d < k; d++ {
			if d == c || d == exclude || w[c][d] == 0 {
				continue
			}
			total += w[c][d] * float64(net.Distance(p, place[d]))
		}
		return total
	}
	moves := 0
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for c := 0; c < k; c++ {
			if err := ctx.Err(); err != nil {
				return place, moves, err
			}
			for p := 0; p < net.N; p++ {
				if p == place[c] {
					continue
				}
				d := clusterAt[p]
				var before, after float64
				if d == -1 {
					before = costAt(c, place[c], -1)
					after = costAt(c, p, -1)
				} else {
					before = costAt(c, place[c], d) + costAt(d, p, c) +
						2*w[c][d]*float64(net.Distance(place[c], p))
					after = costAt(c, p, d) + costAt(d, place[c], c) +
						2*w[c][d]*float64(net.Distance(p, place[c]))
				}
				if after < before {
					old := place[c]
					place[c] = p
					clusterAt[p] = c
					if d == -1 {
						clusterAt[old] = -1
					} else {
						place[d] = old
						clusterAt[old] = d
					}
					moves++
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return place, moves, nil
}
