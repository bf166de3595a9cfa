// Package graph implements the OREGAMI task-graph model: a weighted,
// colored directed graph G = (V, E1, ..., Ec) in which each edge set Ek
// corresponds to one communication phase of the parallel computation
// (paper, Section 2). Node weights are per-execution-phase execution
// costs; edge weights are per-message communication volumes.
package graph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Edge is a directed communication edge between two tasks. Weight is the
// message volume transmitted on this edge during its phase.
type Edge struct {
	From, To int
	Weight   float64
}

// CommPhase is one "color" of the task graph: the set of edges involved in
// a single synchronous communication phase.
type CommPhase struct {
	Name  string
	Edges []Edge
}

// ExecPhase is a computation phase bracketed by communication phases.
// Cost[v] is the (approximate) execution time of task v during this phase;
// a nil Cost means the phase has uniform cost Uniform on every task.
type ExecPhase struct {
	Name    string
	Uniform float64
	Cost    []float64
}

// TaskGraph is the paper's model of a parallel computation: a static set
// of tasks, a set of colored communication phases, and a set of execution
// phases. Tasks are identified by dense indices 0..NumTasks-1; Labels
// carries the user-visible LaRCS labels.
type TaskGraph struct {
	Name     string
	NumTasks int
	Labels   []string
	Comm     []*CommPhase
	Exec     []*ExecPhase

	// Phase lookup: name-sorted index slices (binary search) instead of
	// the map[string]int of the map-era representation.
	commNames []nameIndex
	execNames []nameIndex

	// csr caches the flat collapsed static graph; any mutation clears it.
	csr atomic.Pointer[CSR]
}

// nameIndex binds a phase name to its position in declaration order.
type nameIndex struct {
	name string
	pos  int
}

// insertName inserts (name, pos) into the name-sorted slice, reporting
// false on a duplicate name.
func insertName(s []nameIndex, name string, pos int) ([]nameIndex, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].name >= name })
	if i < len(s) && s[i].name == name {
		return s, false
	}
	s = append(s, nameIndex{})
	copy(s[i+1:], s[i:])
	s[i] = nameIndex{name: name, pos: pos}
	return s, true
}

// lookupName finds name in the sorted slice, returning its declaration
// position or -1.
func lookupName(s []nameIndex, name string) int {
	i := sort.Search(len(s), func(i int) bool { return s[i].name >= name })
	if i < len(s) && s[i].name == name {
		return s[i].pos
	}
	return -1
}

// New creates an empty task graph with n tasks labeled "0".."n-1". The
// labels are carved from one backing string, so construction costs
// three allocations whatever n is.
func New(name string, n int) *TaskGraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative task count %d", n))
	}
	// Total decimal digits of "0" plus 1..n-1 grouped by width:
	// width w covers [10^(w-1), min(n-1, 10^w - 1)].
	total := 0
	if n > 0 {
		total = 1
	}
	for lo, w := 1, 1; lo <= n-1; lo, w = lo*10, w+1 {
		hi := lo*10 - 1
		if hi > n-1 {
			hi = n - 1
		}
		total += (hi - lo + 1) * w
	}
	buf := make([]byte, 0, total)
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	backing := string(buf)
	labels := make([]string, n)
	start, width, next := 0, 1, 10
	for i := 0; i < n; i++ {
		if i == next {
			next *= 10
			width++
		}
		labels[i] = backing[start : start+width]
		start += width
	}
	return &TaskGraph{
		Name:     name,
		NumTasks: n,
		Labels:   labels,
	}
}

// AddCommPhase registers a new, empty communication phase and returns it.
// Phase names must be unique across communication phases.
func (g *TaskGraph) AddCommPhase(name string) *CommPhase {
	names, ok := insertName(g.commNames, name, len(g.Comm))
	if !ok {
		panic(fmt.Sprintf("graph: duplicate comm phase %q", name))
	}
	g.commNames = names
	p := &CommPhase{Name: name}
	g.Comm = append(g.Comm, p)
	g.csr.Store(nil)
	return p
}

// AddExecPhase registers a new execution phase with a uniform per-task
// cost and returns it. Phase names must be unique across execution phases.
func (g *TaskGraph) AddExecPhase(name string, uniform float64) *ExecPhase {
	names, ok := insertName(g.execNames, name, len(g.Exec))
	if !ok {
		panic(fmt.Sprintf("graph: duplicate exec phase %q", name))
	}
	g.execNames = names
	p := &ExecPhase{Name: name, Uniform: uniform}
	g.Exec = append(g.Exec, p)
	return p
}

// CommPhaseByName returns the named communication phase, or nil.
func (g *TaskGraph) CommPhaseByName(name string) *CommPhase {
	if i := lookupName(g.commNames, name); i >= 0 {
		return g.Comm[i]
	}
	return nil
}

// ExecPhaseByName returns the named execution phase, or nil.
func (g *TaskGraph) ExecPhaseByName(name string) *ExecPhase {
	if i := lookupName(g.execNames, name); i >= 0 {
		return g.Exec[i]
	}
	return nil
}

// AddEdge appends a directed edge to phase p, validating endpoints.
func (g *TaskGraph) AddEdge(p *CommPhase, from, to int, weight float64) {
	if from < 0 || from >= g.NumTasks || to < 0 || to >= g.NumTasks {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.NumTasks))
	}
	if weight < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %g", weight))
	}
	p.Edges = append(p.Edges, Edge{From: from, To: to, Weight: weight})
	g.csr.Store(nil)
}

// TaskCost returns task v's execution cost in exec phase p.
func (p *ExecPhase) TaskCost(v int) float64 {
	if p.Cost != nil {
		return p.Cost[v]
	}
	return p.Uniform
}

// NumEdges returns the total number of edges over all communication phases.
func (g *TaskGraph) NumEdges() int {
	n := 0
	for _, p := range g.Comm {
		n += len(p.Edges)
	}
	return n
}

// TotalVolume is the sum of all edge weights over all phases.
func (g *TaskGraph) TotalVolume() float64 {
	var v float64
	for _, p := range g.Comm {
		for _, e := range p.Edges {
			v += e.Weight
		}
	}
	return v
}

// TotalExecCost returns the sum over tasks of the cost of exec phase p; it
// is the sequential work of that phase.
func (p *ExecPhase) TotalExecCost(numTasks int) float64 {
	if p.Cost != nil {
		var s float64
		for _, c := range p.Cost {
			s += c
		}
		return s
	}
	return p.Uniform * float64(numTasks)
}

// Validate checks structural invariants: endpoint ranges, label count, and
// per-phase cost vector lengths. It returns the first violation found.
func (g *TaskGraph) Validate() error {
	if len(g.Labels) != g.NumTasks {
		return fmt.Errorf("graph: %q: %d labels for %d tasks", g.Name, len(g.Labels), g.NumTasks)
	}
	for _, p := range g.Comm {
		for _, e := range p.Edges {
			if e.From < 0 || e.From >= g.NumTasks || e.To < 0 || e.To >= g.NumTasks {
				return fmt.Errorf("graph: %q phase %q: edge (%d,%d) out of range", g.Name, p.Name, e.From, e.To)
			}
			if e.Weight < 0 {
				return fmt.Errorf("graph: %q phase %q: negative weight on edge (%d,%d)", g.Name, p.Name, e.From, e.To)
			}
		}
	}
	for _, p := range g.Exec {
		if p.Cost != nil && len(p.Cost) != g.NumTasks {
			return fmt.Errorf("graph: %q exec phase %q: %d costs for %d tasks", g.Name, p.Name, len(p.Cost), g.NumTasks)
		}
	}
	return nil
}

// Clone returns a deep copy of the task graph.
func (g *TaskGraph) Clone() *TaskGraph {
	c := New(g.Name, g.NumTasks)
	copy(c.Labels, g.Labels)
	for _, p := range g.Comm {
		cp := c.AddCommPhase(p.Name)
		cp.Edges = append([]Edge(nil), p.Edges...)
	}
	for _, p := range g.Exec {
		ep := c.AddExecPhase(p.Name, p.Uniform)
		if p.Cost != nil {
			ep.Cost = append([]float64(nil), p.Cost...)
		}
	}
	return c
}

// CollapsedEntry is one undirected edge of the collapsed static graph:
// tasks A < B with total inter-task volume W.
type CollapsedEntry struct {
	A, B int
	W    float64
}

// CollapsedEntries returns the collapsed static graph as a slice sorted
// by (A, B), built flat (no maps): directed edges become Terms ordered
// by SortTerms, then per-pair runs fold into weights. The per-pair addition order is fixed — edge order within a
// phase into a subtotal, subtotals added in phase declaration order —
// so the weights (and everything contracted from them) are
// bit-identical to the historical per-phase map merge. Contraction
// consumes this form; random-access callers use the CSR.
func (g *TaskGraph) CollapsedEntries() []CollapsedEntry {
	return foldPhases(g.collapseTerms())
}

// Degree returns the number of distinct neighbors of task v in the
// collapsed static graph (a CSR row length; the per-call seen-set is
// gone).
func (g *TaskGraph) Degree(v int) int {
	return g.CSR().Degree(v)
}

// IsNodeSymmetricCandidate reports whether every communication phase is a
// bijection on tasks (each task has exactly one outgoing and one incoming
// edge per phase) — the precondition for the group-theoretic contraction
// of Section 4.2.2.
func (g *TaskGraph) IsNodeSymmetricCandidate() bool {
	for _, p := range g.Comm {
		if len(p.Edges) != g.NumTasks {
			return false
		}
		out := make([]int, g.NumTasks)
		in := make([]int, g.NumTasks)
		for _, e := range p.Edges {
			out[e.From]++
			in[e.To]++
		}
		for v := 0; v < g.NumTasks; v++ {
			if out[v] != 1 || in[v] != 1 {
				return false
			}
		}
	}
	return len(g.Comm) > 0
}

// PhasePermutation returns, for a bijective phase, the permutation image
// p(i) = the unique target of task i, and ok=false if the phase is not a
// bijection.
func (g *TaskGraph) PhasePermutation(p *CommPhase) ([]int, bool) {
	img := make([]int, g.NumTasks)
	for i := range img {
		img[i] = -1
	}
	in := make([]int, g.NumTasks)
	for _, e := range p.Edges {
		if img[e.From] != -1 {
			return nil, false
		}
		img[e.From] = e.To
		in[e.To]++
	}
	for v := 0; v < g.NumTasks; v++ {
		if img[v] == -1 || in[v] != 1 {
			return nil, false
		}
	}
	return img, true
}

// String renders a compact human-readable summary.
func (g *TaskGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "task graph %q: %d tasks, %d comm phases, %d exec phases\n",
		g.Name, g.NumTasks, len(g.Comm), len(g.Exec))
	for _, p := range g.Comm {
		fmt.Fprintf(&b, "  comm %-12s %4d edges, volume %g\n", p.Name, len(p.Edges), phaseVolume(p))
	}
	for _, p := range g.Exec {
		fmt.Fprintf(&b, "  exec %-12s total cost %g\n", p.Name, p.TotalExecCost(g.NumTasks))
	}
	return b.String()
}

func phaseVolume(p *CommPhase) float64 {
	var v float64
	for _, e := range p.Edges {
		v += e.Weight
	}
	return v
}

// DOT renders the collapsed static graph in Graphviz format, one style
// per phase color.
func (g *TaskGraph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	for v := 0; v < g.NumTasks; v++ {
		fmt.Fprintf(&b, "  %d [label=%q];\n", v, g.Labels[v])
	}
	for ci, p := range g.Comm {
		for _, e := range p.Edges {
			fmt.Fprintf(&b, "  %d -> %d [label=%q colorscheme=paired12 color=%d];\n",
				e.From, e.To, p.Name, ci%12+1)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
