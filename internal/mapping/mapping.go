// Package mapping defines the result types shared by OREGAMI's three
// mapping steps (paper, Section 2): contraction (tasks -> clusters),
// embedding (clusters -> processors), and routing (task-graph edges ->
// link paths).
package mapping

import (
	"fmt"

	"oregami/internal/graph"
	"oregami/internal/topology"
)

// Mapping is a complete (or partially filled) mapping of a task graph
// onto a network.
type Mapping struct {
	Graph *graph.TaskGraph
	Net   *topology.Network

	// Part[t] is the cluster of task t (contraction). Cluster ids are
	// dense, 0..NumClusters-1.
	Part []int
	// Place[c] is the processor of cluster c (embedding).
	Place []int
	// Routes[phase][k] is the link path of the k-th edge of that
	// communication phase (routing). Intracluster edges have empty
	// routes.
	Routes map[string][]topology.Route

	// Method records which MAPPER algorithms produced this mapping,
	// e.g. "canned:ring->hypercube" or "mwm-contract+nn-embed+mm-route".
	Method string
}

// New creates a mapping shell with identity contraction placeholders
// unfilled.
func New(g *graph.TaskGraph, net *topology.Network) *Mapping {
	return &Mapping{Graph: g, Net: net, Routes: make(map[string][]topology.Route)}
}

// Clone returns a deep copy of the mapping's mutable state (Part, Place,
// Routes). Graph and Net are shared: both are treated as immutable, and
// degraded-mode repair replaces Net wholesale rather than editing it.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{Graph: m.Graph, Net: m.Net, Method: m.Method}
	if m.Part != nil {
		c.Part = append([]int(nil), m.Part...)
	}
	if m.Place != nil {
		c.Place = append([]int(nil), m.Place...)
	}
	c.Routes = make(map[string][]topology.Route, len(m.Routes))
	for name, routes := range m.Routes {
		rs := make([]topology.Route, len(routes))
		for i, r := range routes {
			rs[i] = append(topology.Route(nil), r...)
		}
		c.Routes[name] = rs
	}
	return c
}

// NumClusters returns the number of clusters of the contraction.
func (m *Mapping) NumClusters() int {
	max := -1
	for _, c := range m.Part {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// ProcOf returns the processor assigned to task t.
func (m *Mapping) ProcOf(t int) int {
	return m.Place[m.Part[t]]
}

// Clusters returns cluster -> member task lists.
func (m *Mapping) Clusters() [][]int {
	out := make([][]int, m.NumClusters())
	for t, c := range m.Part {
		out[c] = append(out[c], t)
	}
	return out
}

// TasksPerProc returns processor -> number of assigned tasks.
func (m *Mapping) TasksPerProc() []int {
	out := make([]int, m.Net.N)
	for t := range m.Part {
		out[m.ProcOf(t)]++
	}
	return out
}

// Validate checks structural consistency of whichever stages are filled:
// Part covers every task with dense cluster ids; Place is injective and
// in range; every routed phase has one route per edge, each route a valid
// walk from the sender's processor to the receiver's.
func (m *Mapping) Validate() error {
	if m.Part != nil {
		if len(m.Part) != m.Graph.NumTasks {
			return fmt.Errorf("mapping: Part covers %d of %d tasks", len(m.Part), m.Graph.NumTasks)
		}
		k := m.NumClusters()
		seen := make([]bool, k)
		for t, c := range m.Part {
			if c < 0 || c >= k {
				return fmt.Errorf("mapping: task %d in cluster %d out of range", t, c)
			}
			seen[c] = true
		}
		for c, ok := range seen {
			if !ok {
				return fmt.Errorf("mapping: cluster %d is empty", c)
			}
		}
		if k > m.Net.N {
			return fmt.Errorf("mapping: %d clusters for %d processors", k, m.Net.N)
		}
	}
	if m.Place != nil {
		if m.Part == nil {
			return fmt.Errorf("mapping: Place set without Part")
		}
		if len(m.Place) != m.NumClusters() {
			return fmt.Errorf("mapping: Place covers %d of %d clusters", len(m.Place), m.NumClusters())
		}
		used := make(map[int]int)
		for c, p := range m.Place {
			if p < 0 || p >= m.Net.N {
				return fmt.Errorf("mapping: cluster %d on processor %d out of range", c, p)
			}
			if !m.Net.Alive(p) {
				return fmt.Errorf("mapping: cluster %d on failed processor %d", c, p)
			}
			if prev, dup := used[p]; dup {
				return fmt.Errorf("mapping: clusters %d and %d share processor %d", prev, c, p)
			}
			used[p] = c
		}
	}
	for name, routes := range m.Routes {
		p := m.Graph.CommPhaseByName(name)
		if p == nil {
			return fmt.Errorf("mapping: routes for unknown phase %q", name)
		}
		if len(routes) != len(p.Edges) {
			return fmt.Errorf("mapping: phase %q has %d routes for %d edges", name, len(routes), len(p.Edges))
		}
		for k, e := range p.Edges {
			src, dst := m.ProcOf(e.From), m.ProcOf(e.To)
			if src == dst {
				if len(routes[k]) != 0 {
					return fmt.Errorf("mapping: phase %q edge %d is intraprocessor but routed", name, k)
				}
				continue
			}
			end, ok := m.Net.RouteDest(src, routes[k])
			if !ok || end != dst {
				return fmt.Errorf("mapping: phase %q edge %d route does not reach %d from %d", name, k, dst, src)
			}
		}
	}
	return nil
}

// IdentityContraction fills Part with task -> task (requires
// tasks <= processors).
func (m *Mapping) IdentityContraction() error {
	if m.Graph.NumTasks > m.Net.N {
		return fmt.Errorf("mapping: %d tasks exceed %d processors; contraction required",
			m.Graph.NumTasks, m.Net.N)
	}
	m.Part = make([]int, m.Graph.NumTasks)
	for t := range m.Part {
		m.Part[t] = t
	}
	return nil
}

// ClusterGraph builds the contracted task graph: one node per cluster,
// with each phase's intercluster edges aggregated (per ordered cluster
// pair, summed by graph.FoldTerms in edge order, ascending by pair) and
// intracluster edges dropped. It is what the embedding and routing
// stages operate on.
func (m *Mapping) ClusterGraph() *graph.TaskGraph {
	k := m.NumClusters()
	cg := graph.New(m.Graph.Name+"/contracted", k)
	most := 0
	for _, p := range m.Graph.Comm {
		most = max(most, len(p.Edges))
	}
	ts := make([]graph.Term, 0, most)
	for _, p := range m.Graph.Comm {
		cp := cg.AddCommPhase(p.Name)
		ts = ts[:0]
		for _, e := range p.Edges {
			if a, b := m.Part[e.From], m.Part[e.To]; a != b {
				ts = append(ts, graph.Term{A: int32(a), B: int32(b), W: e.Weight})
			}
		}
		graph.SortTerms(ts, k)
		pairs := graph.FoldTerms(ts)
		cp.Edges = make([]graph.Edge, 0, len(pairs))
		for _, t := range pairs {
			cg.AddEdge(cp, int(t.A), int(t.B), t.W)
		}
	}
	for _, p := range m.Graph.Exec {
		ep := cg.AddExecPhase(p.Name, 0)
		ep.Cost = make([]float64, k)
		for t := 0; t < m.Graph.NumTasks; t++ {
			ep.Cost[m.Part[t]] += p.TaskCost(t)
		}
	}
	return cg
}

// InternalizedVolume returns the total communication weight internal to
// clusters (the objective MWM-Contract maximizes; total volume minus
// IPC).
func (m *Mapping) InternalizedVolume() float64 {
	var v float64
	for _, p := range m.Graph.Comm {
		for _, e := range p.Edges {
			if e.From != e.To && m.Part[e.From] == m.Part[e.To] {
				v += e.Weight
			}
		}
	}
	return v
}

// TotalIPC returns the total interprocessor communication volume under
// the contraction (self-loops excluded), the paper's contraction
// objective.
func (m *Mapping) TotalIPC() float64 {
	var v float64
	for _, p := range m.Graph.Comm {
		for _, e := range p.Edges {
			if e.From != e.To && m.Part[e.From] != m.Part[e.To] {
				v += e.Weight
			}
		}
	}
	return v
}
