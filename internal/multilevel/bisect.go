package multilevel

// Recursive bisection: the honest baseline every multilevel paper
// measures against. Split the processors in index halves (on a hier
// network, index halves follow subtree boundaries, so the recursion
// tree mirrors the machine tree), split the tasks proportionally by
// deterministic BFS graph growing over the CSR, and recurse until every
// part has one processor. It needs no matching hierarchy and no exact
// solver, runs in O(|E| log P), and is expected to lose to multilevel
// on IPC — the scale rows in the root package's scale_test.go gate
// both mappers' TotalIPC, and docs/MULTILEVEL.md records by how much.

import (
	"fmt"

	"oregami/internal/graph"
	"oregami/internal/mapping"
	"oregami/internal/topology"
)

// BisectMap partitions g over net's live processors by recursive
// bisection and places each cluster on the processor its recursion leaf
// ends at. Deterministic: processor halves split by index, task halves
// grow by BFS from the smallest task index, neighbors in CSR row order.
func BisectMap(g *graph.TaskGraph, net *topology.Network, opt Options) (*mapping.Mapping, *Stats, error) {
	if g.NumTasks == 0 {
		return nil, nil, fmt.Errorf("multilevel: empty task graph")
	}
	live := liveProcs(net)
	if len(live) == 0 {
		return nil, nil, fmt.Errorf("multilevel: no live processors in %s", net.Name)
	}
	if opt.Processors > 0 && opt.Processors < len(live) {
		live = live[:opt.Processors]
	}
	c := g.CSR()
	b := &bisector{
		csr:   c,
		proc:  make([]int32, g.NumTasks),
		inSet: make([]int32, g.NumTasks),
		inA:   make([]int32, g.NumTasks),
		queue: make([]int32, 0, g.NumTasks),
	}
	tasks := make([]int32, g.NumTasks)
	for i := range tasks {
		tasks[i] = int32(i)
	}
	b.split(tasks, live)

	// Leaves with tasks become dense clusters in first-use order of the
	// task indices, so the partition is dense and covering.
	m := mapping.New(g, net)
	m.Part = make([]int, g.NumTasks)
	clusterOf := make(map[int32]int, len(live))
	var place []int
	for t := 0; t < g.NumTasks; t++ {
		p := b.proc[t]
		cid, ok := clusterOf[p]
		if !ok {
			cid = len(place)
			clusterOf[p] = cid
			place = append(place, int(p))
		}
		m.Part[t] = cid
	}
	m.Place = place
	m.Method = "recursive-bisection"
	st := &Stats{Levels: 1, LevelSizes: []int{g.NumTasks}, CoarsestTasks: g.NumTasks, Clusters: len(place)}
	return m, st, nil
}

// liveProcs lists the live processor ids in ascending order.
func liveProcs(net *topology.Network) []int32 {
	out := make([]int32, 0, net.NumLive())
	for p := 0; p < net.N; p++ {
		if net.Alive(p) {
			out = append(out, int32(p))
		}
	}
	return out
}

type bisector struct {
	csr    *graph.CSR
	proc   []int32 // final processor per task
	inSet  []int32 // generation marker: task is in the current subset
	inA    []int32 // generation marker: task was grown into side A
	setGen int32
	queue  []int32
}

// split assigns every task in tasks to a processor in procs. tasks is
// consumed (repartitioned in place into the two recursion branches).
func (b *bisector) split(tasks, procs []int32) {
	if len(procs) == 1 || len(tasks) == 0 {
		for _, t := range tasks {
			b.proc[t] = procs[0]
		}
		return
	}
	half := len(procs) / 2
	procsA, procsB := procs[:half], procs[half:]
	// Proportional split: side A gets its processor share of the tasks.
	nA := len(tasks) * len(procsA) / len(procs)
	if nA == 0 {
		nA = 1
	}
	b.grow(tasks, nA)
	// Stable two-way partition of tasks in place: index order survives
	// within each side, so recursion stays deterministic.
	scratch := make([]int32, 0, len(tasks)-nA)
	w := 0
	for _, t := range tasks {
		if b.inA[t] == b.setGen {
			tasks[w] = t
			w++
		} else {
			scratch = append(scratch, t)
		}
	}
	copy(tasks[w:], scratch)
	b.split(tasks[:nA], procsA)
	b.split(tasks[nA:], procsB)
}

// grow BFS-grows a region of exactly n tasks inside tasks, starting
// from the smallest index and restarting from the next smallest
// unreached task when a component is exhausted; membership is recorded
// as inA[t] == setGen.
func (b *bisector) grow(tasks []int32, n int) {
	b.setGen++
	gen := b.setGen
	for _, t := range tasks {
		b.inSet[t] = gen
	}
	grown := 0
	b.queue = b.queue[:0]
	next := 0 // cursor into tasks for BFS restarts
	for grown < n {
		if len(b.queue) == 0 {
			for b.inA[tasks[next]] == gen {
				next++
			}
			seed := tasks[next]
			b.inA[seed] = gen
			grown++
			b.queue = append(b.queue, seed)
			continue
		}
		v := b.queue[0]
		b.queue = b.queue[1:]
		for i := b.csr.Off[v]; i < b.csr.Off[v+1]; i++ {
			u := b.csr.Adj[i]
			if b.inSet[u] != gen || b.inA[u] == gen {
				continue
			}
			b.inA[u] = gen
			grown++
			b.queue = append(b.queue, u)
			if grown == n {
				return
			}
		}
	}
}
