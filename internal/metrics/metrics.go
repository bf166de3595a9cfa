// Package metrics implements OREGAMI's METRICS component (paper,
// Section 5): it computes the performance metrics of a mapping — load
// balancing, link dilation/volume/contention per phase, and overall
// totals — renders them (ASCII in place of the original Mac color
// display), and supports the modify-and-recompute loop (task
// reassignment and edge rerouting).
package metrics

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"oregami/internal/mapping"
	"oregami/internal/par"
	"oregami/internal/route"
	"oregami/internal/topology"
)

// LoadMetrics covers the load-balancing metrics.
type LoadMetrics struct {
	TasksPerProc []int
	// ExecPerProc[p] is the total execution cost assigned to processor
	// p summed over all execution phases.
	ExecPerProc []float64
	// Imbalance is max(ExecPerProc) / mean(ExecPerProc); 1.0 is
	// perfectly balanced. Zero-cost mappings report 1.0.
	Imbalance float64
}

// LinkMetrics covers one communication phase's link metrics.
type LinkMetrics struct {
	Phase string
	// VolumePerLink[l] is the message volume crossing link l.
	VolumePerLink []float64
	// ContentionPerLink[l] is the number of routes using link l.
	ContentionPerLink []int
	MaxContention     int
	// AvgDilation and MaxDilation summarize route lengths over
	// interprocessor edges; intraprocessor edges count as dilation 0
	// and are excluded from the average.
	AvgDilation float64
	MaxDilation int
}

// Report is the full metrics bundle for a mapping.
type Report struct {
	Load LoadMetrics
	// Links has one entry per communication phase, in phase order.
	Links []LinkMetrics
	// TotalIPC is the total interprocessor communication volume.
	TotalIPC float64
	// TotalVolume is the total message volume (IPC + internalized).
	TotalVolume float64
}

// Compute derives the metrics of a (fully routed) mapping sequentially;
// it is ComputeN with a single worker.
func Compute(m *mapping.Mapping) (*Report, error) {
	return ComputeN(m, 1)
}

// ComputeN derives the metrics of a (fully routed) mapping using up to
// workers goroutines (0 = GOMAXPROCS, 1 = sequential) for the per-phase
// link metrics, which never interact across phases. The load metrics and
// the TotalIPC/TotalVolume accumulations stay sequential in a fixed
// order, so the report is bit-identical at every worker count — the
// post-condition oracle (check.VerifyMetrics) compares these floats
// exactly.
func ComputeN(m *mapping.Mapping, workers int) (*Report, error) {
	if m.Part == nil || m.Place == nil {
		return nil, fmt.Errorf("metrics: mapping is not contracted/embedded")
	}
	r := &Report{}
	r.Load.TasksPerProc = m.TasksPerProc()
	r.Load.ExecPerProc = make([]float64, m.Net.N)
	for _, ep := range m.Graph.Exec {
		for t := 0; t < m.Graph.NumTasks; t++ {
			r.Load.ExecPerProc[m.ProcOf(t)] += ep.TaskCost(t)
		}
	}
	var sum, max float64
	for _, c := range r.Load.ExecPerProc {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum > 0 {
		r.Load.Imbalance = max * float64(m.Net.N) / sum
	} else {
		r.Load.Imbalance = 1
	}

	// Totals accumulate over phases and edges in declaration order —
	// the exact addition sequence the sequential implementation used.
	for _, p := range m.Graph.Comm {
		for _, e := range p.Edges {
			if e.From == e.To {
				continue
			}
			r.TotalVolume += e.Weight
			if m.ProcOf(e.From) != m.ProcOf(e.To) {
				r.TotalIPC += e.Weight
			}
		}
	}

	// Per-phase link metrics are independent: fan out, one slot each,
	// merged in phase order below. The per-link arrays of every phase
	// share two backing allocations, carved into capacity-clamped
	// segments, instead of two fresh slices per phase; each worker still
	// writes only its own phase's segment.
	nl := m.Net.NumLinks()
	volBacking := make([]float64, len(m.Graph.Comm)*nl)
	conBacking := make([]int, len(m.Graph.Comm)*nl)
	r.Links = make([]LinkMetrics, len(m.Graph.Comm))
	_ = par.ForEach(context.Background(), par.Resolve(workers), len(m.Graph.Comm), func(pi int) error {
		p := m.Graph.Comm[pi]
		lm := LinkMetrics{
			Phase:             p.Name,
			VolumePerLink:     volBacking[pi*nl : (pi+1)*nl : (pi+1)*nl],
			ContentionPerLink: conBacking[pi*nl : (pi+1)*nl : (pi+1)*nl],
		}
		routes, routed := m.Routes[p.Name]
		hops, crossEdges := 0, 0
		for i, e := range p.Edges {
			src, dst := m.ProcOf(e.From), m.ProcOf(e.To)
			if src == dst {
				continue
			}
			crossEdges++
			if !routed {
				continue
			}
			route := routes[i]
			hops += len(route)
			if len(route) > lm.MaxDilation {
				lm.MaxDilation = len(route)
			}
			for _, id := range route {
				lm.VolumePerLink[id] += e.Weight
				lm.ContentionPerLink[id]++
				if lm.ContentionPerLink[id] > lm.MaxContention {
					lm.MaxContention = lm.ContentionPerLink[id]
				}
			}
		}
		if crossEdges > 0 && routed {
			lm.AvgDilation = float64(hops) / float64(crossEdges)
		}
		r.Links[pi] = lm
		return nil
	})
	return r, nil
}

// --- Modify operations (the METRICS click-and-drag loop) ---------------

// ReassignTask moves a task to the cluster residing on the given
// processor, creating a fresh cluster there if the processor is empty.
// Routes touching the task's phases are invalidated (cleared); callers
// re-run the router and Compute afterwards, mirroring the paper's
// recompute-on-modify loop. MoveTask is the move plus the reroute.
func ReassignTask(m *mapping.Mapping, task, proc int) error {
	if task < 0 || task >= m.Graph.NumTasks {
		return fmt.Errorf("metrics: task %d out of range", task)
	}
	if proc < 0 || proc >= m.Net.N {
		return fmt.Errorf("metrics: processor %d out of range", proc)
	}
	if !m.Net.Alive(proc) {
		return fmt.Errorf("metrics: processor %d has failed", proc)
	}
	target := -1
	for c, p := range m.Place {
		if p == proc {
			target = c
			break
		}
	}
	old := m.Part[task]
	if target == old {
		return nil
	}
	if target == -1 {
		target = len(m.Place)
		m.Place = append(m.Place, proc)
	}
	m.Part[task] = target
	// The old cluster may now be empty: compact cluster ids.
	oldEmpty := true
	for _, c := range m.Part {
		if c == old {
			oldEmpty = false
			break
		}
	}
	if oldEmpty {
		remap := make([]int, len(m.Place))
		newPlace := make([]int, 0, len(m.Place)-1)
		next := 0
		for c := range m.Place {
			if c == old {
				remap[c] = -1
				continue
			}
			remap[c] = next
			newPlace = append(newPlace, m.Place[c])
			next++
		}
		for t, c := range m.Part {
			m.Part[t] = remap[c]
		}
		m.Place = newPlace
	}
	// Invalidate routes.
	m.Routes = make(map[string][]topology.Route)
	return nil
}

// MoveTask is one step of the modify-and-recompute loop: it reassigns
// task to proc (ReassignTask) and reroutes every phase with MM-Route.
// The move is atomic: when rerouting fails (e.g. the target is
// unreachable on a degraded machine), Part, Place and Routes roll back
// to their state before the call.
func MoveTask(m *mapping.Mapping, task, proc int) error {
	snap := m.Clone()
	if err := ReassignTask(m, task, proc); err != nil {
		return err
	}
	if _, err := route.RouteAll(m, route.Options{}); err != nil {
		m.Part, m.Place, m.Routes = snap.Part, snap.Place, snap.Routes
		return fmt.Errorf("metrics: moving task %d to processor %d: %w (mapping unchanged)", task, proc, err)
	}
	return nil
}

// ReRoute replaces the route of one edge of one phase after validating
// that it connects the edge's processors along existing links.
func ReRoute(m *mapping.Mapping, phaseName string, edgeIdx int, route topology.Route) error {
	p := m.Graph.CommPhaseByName(phaseName)
	if p == nil {
		return fmt.Errorf("metrics: unknown phase %q", phaseName)
	}
	if edgeIdx < 0 || edgeIdx >= len(p.Edges) {
		return fmt.Errorf("metrics: edge %d out of range for phase %q", edgeIdx, phaseName)
	}
	routes, ok := m.Routes[phaseName]
	if !ok {
		return fmt.Errorf("metrics: phase %q is not routed yet", phaseName)
	}
	e := p.Edges[edgeIdx]
	src, dst := m.ProcOf(e.From), m.ProcOf(e.To)
	if src == dst {
		if len(route) != 0 {
			return fmt.Errorf("metrics: edge %d is intraprocessor; route must be empty", edgeIdx)
		}
		routes[edgeIdx] = nil
		return nil
	}
	path, valid := m.Net.RouteEndpoints(src, route)
	if !valid || path[len(path)-1] != dst {
		return fmt.Errorf("metrics: route does not connect processor %d to %d", src, dst)
	}
	routes[edgeIdx] = route
	return nil
}

// --- ASCII rendering ----------------------------------------------------

// Render produces the full textual display: the mapping layout, load
// bars, and per-phase link tables.
func Render(m *mapping.Mapping, r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mapping of %q onto %s via %s\n", m.Graph.Name, m.Net.Name, m.Method)
	b.WriteString(RenderLayout(m))
	b.WriteString(RenderLoad(m, r))
	b.WriteString(RenderLinks(m, r))
	fmt.Fprintf(&b, "total IPC %.6g of %.6g volume; exec imbalance %.6g\n",
		r.TotalIPC, r.TotalVolume, r.Load.Imbalance)
	return b.String()
}

// RenderLayout draws the processors with their task lists: meshes and
// tori as a grid, everything else as a table.
func RenderLayout(m *mapping.Mapping) string {
	tasksOf := make([][]int, m.Net.N)
	for t := 0; t < m.Graph.NumTasks; t++ {
		p := m.ProcOf(t)
		tasksOf[p] = append(tasksOf[p], t)
	}
	labels := make([]string, m.Net.N)
	width := 0
	for p, ts := range tasksOf {
		var parts []string
		for _, t := range ts {
			parts = append(parts, m.Graph.Labels[t])
		}
		labels[p] = strings.Join(parts, ",")
		if labels[p] == "" {
			labels[p] = "-"
		}
		if len(labels[p]) > width {
			width = len(labels[p])
		}
	}
	var b strings.Builder
	if m.Net.Kind == "mesh" || m.Net.Kind == "torus" {
		rows, cols := m.Net.Dims[0], m.Net.Dims[1]
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				fmt.Fprintf(&b, "[%*s]", width, labels[i*cols+j])
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for p := 0; p < m.Net.N; p++ {
		fmt.Fprintf(&b, "  proc %3d: %s\n", p, labels[p])
	}
	return b.String()
}

// RenderLoad draws per-processor execution load as bars.
func RenderLoad(m *mapping.Mapping, r *Report) string {
	var b strings.Builder
	max := 0.0
	for _, c := range r.Load.ExecPerProc {
		if c > max {
			max = c
		}
	}
	b.WriteString("load (tasks | exec cost):\n")
	for p := 0; p < m.Net.N; p++ {
		bar := 0
		if max > 0 {
			bar = int(r.Load.ExecPerProc[p] / max * 30)
		}
		fmt.Fprintf(&b, "  %3d: %2d | %8.6g %s\n", p, r.Load.TasksPerProc[p],
			r.Load.ExecPerProc[p], strings.Repeat("#", bar))
	}
	return b.String()
}

// RenderLinks tabulates the busiest links of each phase.
func RenderLinks(m *mapping.Mapping, r *Report) string {
	var b strings.Builder
	for _, lm := range r.Links {
		fmt.Fprintf(&b, "phase %-12s avg dilation %.3f, max %d, max contention %d\n",
			lm.Phase, lm.AvgDilation, lm.MaxDilation, lm.MaxContention)
		type row struct {
			id  int
			vol float64
			con int
		}
		var rows []row
		for id := range lm.VolumePerLink {
			if lm.ContentionPerLink[id] > 0 {
				rows = append(rows, row{id, lm.VolumePerLink[id], lm.ContentionPerLink[id]})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].con != rows[j].con {
				return rows[i].con > rows[j].con
			}
			return rows[i].id < rows[j].id
		})
		if len(rows) > 8 {
			rows = rows[:8]
		}
		for _, rw := range rows {
			l := m.Net.Link(rw.id)
			fmt.Fprintf(&b, "    link %3d (%d-%d): %2d routes, volume %.6g\n",
				rw.id, l.A, l.B, rw.con, rw.vol)
		}
	}
	return b.String()
}
