// Package embed implements Algorithm NN-Embed (paper, Section 4.3): a
// greedy embedding that places highly communicating clusters on adjacent
// processors of the network, plus the identity and random baselines used
// by the evaluation harness.
package embed

import (
	"context"
	"fmt"
	"math/rand"

	"oregami/internal/graph"
	"oregami/internal/topology"
)

// NNEmbedCtx runs NN-Embed: it assigns each node of the cluster graph cg
// (at most net.NumLive() nodes) to a distinct live processor. The
// heaviest-communicating pair is placed on adjacent processors first;
// thereafter the unplaced cluster with the largest total traffic to
// already-placed clusters is placed on the free processor minimizing the
// traffic-weighted distance to its placed partners. On a degraded
// network, failed processors are never used. The placement loop checks
// ctx between clusters and aborts with ctx.Err() when cancelled.
func NNEmbedCtx(ctx context.Context, cg *graph.TaskGraph, net *topology.Network) ([]int, error) {
	k := cg.NumTasks
	live := net.NumLive()
	if k > live {
		return nil, fmt.Errorf("embed: %d clusters exceed %d live processors", k, live)
	}
	if k == 0 {
		return nil, fmt.Errorf("embed: empty cluster graph")
	}
	// The heaviest collapsed pair seeds the placement: the first in
	// (weight desc, a asc, b asc) order. The CSR rows are ascending, so a
	// strict > over the upper triangle keeps the lowest (a, b) on ties.
	csr := cg.CSR()
	seedA, seedB, seedW := -1, -1, 0.0
	for a := 0; a < k; a++ {
		ws := csr.RowWeights(a)
		for i, b := range csr.Neighbors(a) {
			if int(b) > a && (seedA == -1 || ws[i] > seedW) {
				seedA, seedB, seedW = a, int(b), ws[i]
			}
		}
	}

	place := make([]int, k)
	for i := range place {
		place[i] = -1
	}
	freeProc := make([]bool, net.N)
	for i := range freeProc {
		freeProc[i] = net.Alive(i)
	}
	placed := 0
	occupy := func(cluster, proc int) {
		place[cluster] = proc
		freeProc[proc] = false
		placed++
	}

	// Seed: the heaviest edge goes on the highest-degree live processor
	// and one of its neighbors (adjacent when the degree is positive;
	// an isolated live processor can only host a singleton).
	seedProc := -1
	for p := 0; p < net.N; p++ {
		if freeProc[p] && (seedProc == -1 || net.Degree(p) > net.Degree(seedProc)) {
			seedProc = p
		}
	}
	if seedA != -1 && k > 1 {
		occupy(seedA, seedProc)
		second := -1
		for _, u := range net.Neighbors(seedProc) {
			if freeProc[u] {
				second = u
				break
			}
		}
		if second == -1 {
			for p := 0; p < net.N; p++ {
				if freeProc[p] {
					second = p
					break
				}
			}
		}
		occupy(seedB, second)
	} else {
		occupy(0, seedProc)
	}

	// traffic[c] is unplaced cluster c's traffic to placed clusters: a
	// sum over c's CSR row in row order, so its terms add in cluster-id
	// order — with fractional weights another order can change a
	// placement. A placement changes only its neighbours' sums, so only
	// those rows are re-tallied, each in full and in row order.
	tally := func(c int) float64 {
		t := 0.0
		ws := csr.RowWeights(c)
		for i, d := range csr.Neighbors(c) {
			if place[d] != -1 {
				t += ws[i]
			}
		}
		return t
	}
	traffic := make([]float64, k)
	for c := range traffic {
		if place[c] == -1 {
			traffic[c] = tally(c)
		}
	}
	cost := make([]float64, net.N)
	for placed < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Unplaced cluster with max traffic to placed clusters; fall
		// back to the lowest-id unplaced cluster for isolated nodes.
		best, bestW := -1, -1.0
		for c := 0; c < k; c++ {
			if place[c] == -1 && traffic[c] > bestW {
				best, bestW = c, traffic[c]
			}
		}
		// Free processor minimizing weighted distance to partners. The
		// costs accumulate partner by partner, in row order, so each
		// processor's sum adds the same terms in the same order as a
		// processor-by-processor scan.
		clear(cost)
		nbrs, ws := csr.Neighbors(best), csr.RowWeights(best)
		for i, d := range nbrs {
			if place[d] == -1 || !(ws[i] > 0) {
				continue
			}
			q := place[d]
			for p := 0; p < net.N; p++ {
				if !freeProc[p] {
					continue
				}
				hops := net.Distance(p, q)
				if hops < 0 {
					// Disconnected on a degraded network: worse than
					// any reachable placement.
					hops = net.N
				}
				cost[p] += ws[i] * float64(hops)
			}
		}
		bestProc := -1
		for p := 0; p < net.N; p++ {
			if freeProc[p] && (bestProc == -1 || cost[p] < cost[bestProc]) {
				bestProc = p
			}
		}
		occupy(best, bestProc)
		for _, d := range nbrs {
			if place[d] == -1 {
				traffic[d] = tally(int(d))
			}
		}
	}
	return place, nil
}

// Identity places cluster c on processor c.
func Identity(k int, net *topology.Network) ([]int, error) {
	if k > net.N {
		return nil, fmt.Errorf("embed: %d clusters exceed %d processors", k, net.N)
	}
	place := make([]int, k)
	for i := range place {
		if !net.Alive(i) {
			return nil, fmt.Errorf("embed: identity placement hits failed processor %d", i)
		}
		place[i] = i
	}
	return place, nil
}

// Random places clusters on a random set of distinct live processors.
func Random(k int, net *topology.Network, seed int64) ([]int, error) {
	var liveProcs []int
	for p := 0; p < net.N; p++ {
		if net.Alive(p) {
			liveProcs = append(liveProcs, p)
		}
	}
	if k > len(liveProcs) {
		return nil, fmt.Errorf("embed: %d clusters exceed %d live processors", k, len(liveProcs))
	}
	place := make([]int, 0, k)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(liveProcs))[:k] {
		place = append(place, liveProcs[i])
	}
	return place, nil
}

// WeightedDilation evaluates an embedding: the total over collapsed
// cluster-graph edges of weight x hop distance, and the maximum hop
// distance (max dilation). Lower is better; dilation 1 everywhere means
// the cluster graph is a subgraph of the network.
func WeightedDilation(cg *graph.TaskGraph, net *topology.Network, place []int) (total float64, maxHops int) {
	// Sorted entries, not a map: the float total must not depend on map
	// iteration order.
	for _, e := range cg.CollapsedEntries() {
		d := net.Distance(place[e.A], place[e.B])
		total += e.W * float64(d)
		if d > maxHops {
			maxHops = d
		}
	}
	return total, maxHops
}
