package contract_test

import (
	"context"
	"math"
	"testing"

	"math/rand"

	"oregami/internal/contract"
	"oregami/internal/gen"
	"oregami/internal/graph"
)

// cutWeight is the interprocessor communication volume of a partition:
// the total weight of edges whose endpoints land in different clusters,
// summed over every communication phase.
func cutWeight(g *graph.TaskGraph, part []int) float64 {
	var w float64
	for _, p := range g.Comm {
		for _, e := range p.Edges {
			if part[e.From] != part[e.To] {
				w += e.Weight
			}
		}
	}
	return w
}

// clusterSizes returns the size of each cluster and fails the test if
// cluster ids are not dense 0..k-1.
func clusterSizes(t *testing.T, part []int) []int {
	t.Helper()
	k := 0
	for _, c := range part {
		if c < 0 {
			t.Fatalf("negative cluster id %d in %v", c, part)
		}
		if c+1 > k {
			k = c + 1
		}
	}
	sizes := make([]int, k)
	for _, c := range part {
		sizes[c]++
	}
	for c, s := range sizes {
		if s == 0 {
			t.Fatalf("cluster ids not dense: cluster %d empty in %v", c, part)
		}
	}
	return sizes
}

// bruteForceMinCut enumerates every partition of n tasks (restricted
// growth strings) with at most maxClusters clusters of at most
// maxSize tasks and returns the minimum cut weight. Only feasible for
// the ≤10-task graphs the generators produce here.
func bruteForceMinCut(g *graph.TaskGraph, maxClusters, maxSize int) float64 {
	n := g.NumTasks
	part := make([]int, n)
	sizes := make([]int, n)
	best := math.Inf(1)
	var rec func(i, k int)
	rec = func(i, k int) {
		if i == n {
			if w := cutWeight(g, part); w < best {
				best = w
			}
			return
		}
		for c := 0; c <= k && c < maxClusters; c++ {
			if sizes[c] == maxSize {
				continue
			}
			part[i] = c
			sizes[c]++
			next := k
			if c == k {
				next = k + 1
			}
			rec(i+1, next)
			sizes[c]--
		}
	}
	rec(0, 0)
	return best
}

// TestMWMContractVsBruteForce checks the heuristic against exhaustive
// enumeration on small graphs: its partitions must be feasible (cluster
// count and size bounds respected) and can never beat the true optimum.
func TestMWMContractVsBruteForce(t *testing.T) {
	gen.ForEachSeed(t, 30, func(t *testing.T, seed int64, r *rand.Rand) {
		size := gen.GraphSize{
			Tasks:     2 + r.Intn(7), // ≤8: exhaustive enumeration stays cheap
			Phases:    1 + r.Intn(2),
			Density:   0.2 + 0.5*r.Float64(),
			MaxWeight: 1 + r.Intn(5),
		}
		g := gen.TaskGraph(r, size)
		procs := 2 + r.Intn(3)
		bound := 2 * ((g.NumTasks + 2*procs - 1) / (2 * procs))

		part, err := contract.MWMContract(g, contract.Options{
			Processors:      procs,
			MaxTasksPerProc: bound,
		})
		if err != nil {
			t.Fatalf("MWMContract(%d tasks, P=%d, B=%d): %v", g.NumTasks, procs, bound, err)
		}
		sizes := clusterSizes(t, part)
		if len(sizes) > procs {
			t.Fatalf("MWMContract used %d clusters, allowed %d", len(sizes), procs)
		}
		for c, s := range sizes {
			if s > bound {
				t.Fatalf("cluster %d has %d tasks, bound %d", c, s, bound)
			}
		}
		mwm := cutWeight(g, part)
		opt := bruteForceMinCut(g, procs, bound)
		if opt > mwm {
			t.Fatalf("brute force found cut %g worse than heuristic %g — enumeration is broken", opt, mwm)
		}
	})
}

// TestGroupContractVsBruteForceOnCayley checks the group-theoretic
// contraction on generated Cayley graphs: the coset partition must be
// perfectly balanced and no better than the exhaustive optimum under
// the same (clusters, balance) constraints, and MWM-Contract on the same
// instance must obey the same floor.
func TestGroupContractVsBruteForceOnCayley(t *testing.T) {
	gen.ForEachSeed(t, 30, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.Cayley(r, 8)
		n := g.NumTasks
		var divisors []int
		for k := 2; k < n; k++ {
			if n%k == 0 {
				divisors = append(divisors, k)
			}
		}
		if len(divisors) == 0 {
			t.Skipf("order %d is prime; no proper coset partition", n)
		}
		clusters := divisors[r.Intn(len(divisors))]

		part, info, err := contract.GroupContract(context.Background(), g, clusters)
		if err != nil {
			t.Fatalf("GroupContract(%d tasks, %d clusters): %v", n, clusters, err)
		}
		if info == nil || info.Group == nil || info.Group.Order() != n {
			t.Fatalf("group info missing or wrong order: %+v", info)
		}
		sizes := clusterSizes(t, part)
		if len(sizes) != clusters {
			t.Fatalf("got %d clusters, want exactly %d", len(sizes), clusters)
		}
		for c, s := range sizes {
			if s != n/clusters {
				t.Fatalf("cluster %d has %d tasks, want balanced %d", c, s, n/clusters)
			}
		}
		opt := bruteForceMinCut(g, clusters, n/clusters)
		if grp := cutWeight(g, part); opt > grp {
			t.Fatalf("brute force cut %g worse than group contraction %g", opt, grp)
		}

		mwmPart, err := contract.MWMContract(g, contract.Options{
			Processors:      clusters,
			MaxTasksPerProc: n / clusters,
		})
		if err != nil {
			t.Fatalf("MWMContract on Cayley graph: %v", err)
		}
		clusterSizes(t, mwmPart)
		if mwm := cutWeight(g, mwmPart); opt > mwm {
			t.Fatalf("brute force cut %g worse than MWM cut %g", opt, mwm)
		}
	})
}
