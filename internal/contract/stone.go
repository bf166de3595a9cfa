package contract

import (
	"fmt"

	"oregami/internal/flow"
	"oregami/internal/graph"
)

// TwoProcStone computes the optimal two-processor assignment of the task
// graph in Stone's model (the network-flow foundation the paper cites in
// Section 2): task t costs execA[t] on processor 0 and execB[t] on
// processor 1, and every collapsed communication edge crossing the cut
// costs its weight. It returns part (0/1 per task) and the optimal total
// cost. Unlike MWM-Contract there is no load-balance constraint — Stone
// trades balance for total cost, which is exactly the comparison the
// evaluation harness draws.
func TwoProcStone(g *graph.TaskGraph, execA, execB []float64) ([]int, float64, error) {
	n := g.NumTasks
	if len(execA) != n || len(execB) != n {
		return nil, 0, fmt.Errorf("contract: exec cost vectors must cover %d tasks", n)
	}
	comm := make([][]float64, n)
	for i := range comm {
		comm[i] = make([]float64, n)
	}
	csr := g.CSR()
	for a := 0; a < n; a++ {
		nbrs := csr.Neighbors(a)
		ws := csr.RowWeights(a)
		for i, b := range nbrs {
			comm[a][b] = ws[i]
		}
	}
	onA, cost, err := flow.StoneAssignment(execA, execB, comm)
	if err != nil {
		return nil, 0, err
	}
	part := make([]int, n)
	for t, a := range onA {
		if !a {
			part[t] = 1
		}
	}
	return part, cost, nil
}

// UniformExecCosts sums each task's execution cost over all exec phases,
// the natural homogeneous input for TwoProcStone.
func UniformExecCosts(g *graph.TaskGraph) []float64 {
	out := make([]float64, g.NumTasks)
	for _, p := range g.Exec {
		for t := 0; t < g.NumTasks; t++ {
			out[t] += p.TaskCost(t)
		}
	}
	return out
}

// AssignmentCost evaluates a 0/1 partition under Stone's objective.
func AssignmentCost(g *graph.TaskGraph, part []int, execA, execB []float64) float64 {
	cost := 0.0
	for t, c := range part {
		if c == 0 {
			cost += execA[t]
		} else {
			cost += execB[t]
		}
	}
	// Sorted entries, not a map, so the float objective is bit-identical
	// between runs.
	for _, e := range g.CollapsedEntries() {
		if part[e.A] != part[e.B] {
			cost += e.W
		}
	}
	return cost
}
