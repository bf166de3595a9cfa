package graph

// Components returns the connected components of the collapsed static
// graph, each as a sorted slice of task ids, ordered by smallest member.
func (g *TaskGraph) Components() [][]int {
	adj := g.CSR()
	seen := make([]bool, g.NumTasks)
	var comps [][]int
	for s := 0; s < g.NumTasks; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for q := []int{s}; len(q) > 0; {
			v := q[0]
			q = q[1:]
			for _, nb := range adj.Neighbors(v) {
				if !seen[nb] {
					seen[nb] = true
					comp = append(comp, int(nb))
					q = append(q, int(nb))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// BFSDistances returns hop distances from src in the collapsed static
// graph; unreachable tasks get -1.
func (g *TaskGraph) BFSDistances(src int) []int {
	adj := g.CSR()
	dist := make([]int, g.NumTasks)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for q := []int{src}; len(q) > 0; {
		v := q[0]
		q = q[1:]
		for _, nb := range adj.Neighbors(v) {
			if dist[nb] == -1 {
				dist[nb] = dist[v] + 1
				q = append(q, int(nb))
			}
		}
	}
	return dist
}

// MaxDegree returns the maximum collapsed-graph degree over all tasks.
func (g *TaskGraph) MaxDegree() int {
	c := g.CSR()
	max := 0
	for v := 0; v < c.N; v++ {
		if d := c.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// EdgeCut returns the total collapsed communication weight between tasks
// assigned to different parts under the given partition (part[v] = part id
// of task v). This is the "total IPC" objective of MWM-Contract.
func (g *TaskGraph) EdgeCut(part []int) float64 {
	// Iterate the sorted collapsed entries, not a map: float addition is
	// not associative, so summing in map order made the cut differ in the
	// last ulp between runs.
	var cut float64
	for _, e := range g.CollapsedEntries(1) {
		if part[e.A] != part[e.B] {
			cut += e.W
		}
	}
	return cut
}
