package contract

import (
	"context"

	"oregami/internal/graph"
)

// KLRefine improves a contraction by Kernighan-Lin-style pairwise task
// swaps and single-task moves between clusters: any change that lowers
// the total IPC while keeping every cluster within maxSize is kept.
// Sweeps repeat until no improvement or maxSweeps is reached. It returns
// the refined partition (modified in place) and the number of improving
// moves. Pass maxSize = 0 for "preserve the current maximum cluster
// size". It checks ctx before every sweep and every task's row and
// returns ctx.Err() once the context is done; a live context never
// changes the result.
func KLRefine(ctx context.Context, g *graph.TaskGraph, part []int, maxSize, maxSweeps int) ([]int, int, error) {
	n := g.NumTasks
	k := 0
	for _, c := range part {
		if c+1 > k {
			k = c + 1
		}
	}
	size := make([]int, k)
	for _, c := range part {
		size[c]++
	}
	if maxSize == 0 {
		for _, s := range size {
			if s > maxSize {
				maxSize = s
			}
		}
	}
	// adjacency with weights for gain computation.
	adj := g.CSR()
	// extTo(t, c) = total weight from t to cluster c.
	extTo := func(t, c int) float64 {
		total := 0.0
		ws := adj.RowWeights(t)
		for i, u := range adj.Neighbors(t) {
			if part[u] == c {
				total += ws[i]
			}
		}
		return total
	}
	moves := 0
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		// Single-task moves.
		for t := 0; t < n; t++ {
			if err := ctx.Err(); err != nil {
				return part, moves, err
			}
			from := part[t]
			if size[from] == 1 {
				continue // would empty the cluster
			}
			bestGain := 0.0
			bestTo := -1
			internal := extTo(t, from)
			for c := 0; c < k; c++ {
				if c == from || size[c] >= maxSize {
					continue
				}
				gain := extTo(t, c) - internal
				if gain > bestGain {
					bestGain = gain
					bestTo = c
				}
			}
			if bestTo != -1 {
				size[from]--
				size[bestTo]++
				part[t] = bestTo
				moves++
				improved = true
			}
		}
		// Pairwise swaps (feasible regardless of size bounds).
		for a := 0; a < n; a++ {
			if err := ctx.Err(); err != nil {
				return part, moves, err
			}
			ws := adj.RowWeights(a)
			for i, nb := range adj.Neighbors(a) {
				b := int(nb)
				if b <= a || part[a] == part[b] {
					continue
				}
				ca, cb := part[a], part[b]
				gain := (extTo(a, cb) - extTo(a, ca)) + (extTo(b, ca) - extTo(b, cb)) - 2*ws[i]
				if gain > 0 {
					part[a], part[b] = cb, ca
					moves++
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return part, moves, nil
}
