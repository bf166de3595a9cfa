package check

import (
	"fmt"

	"oregami/internal/graph"
	"oregami/internal/mapping"
	"oregami/internal/metrics"
	"oregami/internal/topology"
)

// VerifyMetrics independently recomputes the METRICS quantities for a
// mapping and compares them to a reported bundle, returning one
// KindMetrics violation per disagreement. The recomputation deliberately
// shares no code with metrics.Compute but follows the same iteration
// order (phases in declaration order, edges in declaration order, links
// in route order), so floating-point sums are bit-identical and the
// comparison can demand exact equality.
//
// A structurally broken mapping (as reported by VerifyMapping) cannot be
// recomputed; VerifyMetrics then returns a single violation saying so
// rather than panicking.
func VerifyMetrics(desc *graph.TaskGraph, net *topology.Network, m *mapping.Mapping, rep *metrics.Report) []Violation {
	var vs []Violation
	add := func(format string, args ...interface{}) {
		vs = append(vs, Violation{Kind: KindMetrics, Detail: fmt.Sprintf(format, args...)})
	}
	addPhase := func(phase, format string, args ...interface{}) {
		vs = append(vs, Violation{Kind: KindMetrics, Phase: phase, Detail: fmt.Sprintf(format, args...)})
	}
	if desc == nil || net == nil || m == nil || rep == nil {
		add("incomplete verification request (desc/net/mapping/report missing)")
		return vs
	}
	if !recomputable(desc, net, m) {
		add("mapping is structurally invalid; metrics cannot be recomputed")
		return vs
	}

	// --- Load metrics -----------------------------------------------------
	tasks := make([]int, net.N)
	exec := make([]float64, net.N)
	for t := 0; t < desc.NumTasks; t++ {
		tasks[safeProc(net, m, t)]++
	}
	for _, ep := range desc.Exec {
		if ep.Cost != nil && len(ep.Cost) != desc.NumTasks {
			add("exec phase %q has %d costs for %d tasks; load not recomputable",
				ep.Name, len(ep.Cost), desc.NumTasks)
			return vs
		}
		for t := 0; t < desc.NumTasks; t++ {
			exec[safeProc(net, m, t)] += ep.TaskCost(t)
		}
	}
	var sum, max float64
	for _, c := range exec {
		sum += c
		if c > max {
			max = c
		}
	}
	imbalance := 1.0
	if sum > 0 {
		imbalance = max * float64(net.N) / sum
	}
	if !equalInts(rep.Load.TasksPerProc, tasks) {
		add("TasksPerProc reported %v, recomputed %v", rep.Load.TasksPerProc, tasks)
	}
	if !equalFloats(rep.Load.ExecPerProc, exec) {
		add("ExecPerProc reported %v, recomputed %v", rep.Load.ExecPerProc, exec)
	}
	if rep.Load.Imbalance != imbalance {
		add("load imbalance reported %v, recomputed %v", rep.Load.Imbalance, imbalance)
	}

	// --- Per-phase link metrics and totals --------------------------------
	if len(rep.Links) != len(desc.Comm) {
		add("%d link-metric entries for %d communication phases", len(rep.Links), len(desc.Comm))
		return vs
	}
	var totalIPC, totalVolume float64
	for pi, p := range desc.Comm {
		lm := rep.Links[pi]
		if lm.Phase != p.Name {
			addPhase(p.Name, "link-metric entry %d is for phase %q", pi, lm.Phase)
			continue
		}
		vol := make([]float64, net.NumLinks())
		con := make([]int, net.NumLinks())
		maxContention, maxDilation := 0, 0
		hops, crossEdges := 0, 0
		routes, routed := m.Routes[p.Name]
		if routed && len(routes) != len(p.Edges) {
			addPhase(p.Name, "%d routes for %d edges; link metrics not recomputable", len(routes), len(p.Edges))
			continue
		}
		for i, e := range p.Edges {
			if e.From != e.To {
				totalVolume += e.Weight
			}
			if safeProc(net, m, e.From) == safeProc(net, m, e.To) {
				continue
			}
			crossEdges++
			totalIPC += e.Weight
			if !routed {
				continue
			}
			route := routes[i]
			hops += len(route)
			if len(route) > maxDilation {
				maxDilation = len(route)
			}
			for _, id := range route {
				if id < 0 || id >= net.NumLinks() {
					continue // walk violation; reported by VerifyMapping
				}
				vol[id] += e.Weight
				con[id]++
				if con[id] > maxContention {
					maxContention = con[id]
				}
			}
		}
		avgDilation := 0.0
		if crossEdges > 0 && routed {
			avgDilation = float64(hops) / float64(crossEdges)
		}
		if !equalFloats(lm.VolumePerLink, vol) {
			addPhase(p.Name, "VolumePerLink reported %v, recomputed %v", lm.VolumePerLink, vol)
		}
		if !equalInts(lm.ContentionPerLink, con) {
			addPhase(p.Name, "ContentionPerLink reported %v, recomputed %v", lm.ContentionPerLink, con)
		}
		if lm.MaxContention != maxContention {
			addPhase(p.Name, "max contention reported %d, recomputed %d", lm.MaxContention, maxContention)
		}
		if lm.MaxDilation != maxDilation {
			addPhase(p.Name, "max dilation reported %d, recomputed %d", lm.MaxDilation, maxDilation)
		}
		if lm.AvgDilation != avgDilation {
			addPhase(p.Name, "avg dilation reported %v, recomputed %v", lm.AvgDilation, avgDilation)
		}
	}
	if rep.TotalIPC != totalIPC {
		add("total IPC reported %v, recomputed %v", rep.TotalIPC, totalIPC)
	}
	if rep.TotalVolume != totalVolume {
		add("total volume reported %v, recomputed %v", rep.TotalVolume, totalVolume)
	}
	return vs
}

// Run is the post-condition oracle as every front door runs it: METRICS
// computed from the mapping with up to workers goroutines
// (metrics.ComputeN), then Verify. A mapping METRICS cannot read (not
// contracted or embedded) is judged on its structure alone. core.Map
// runs it behind Request.Check.
func Run(desc *graph.TaskGraph, net *topology.Network, m *mapping.Mapping, workers int) []Violation {
	rep, err := metrics.ComputeN(m, workers)
	if err != nil {
		rep = nil // the structural violations explain why
	}
	return Verify(desc, net, m, rep)
}

// Verify runs the full oracle: structural post-conditions, and — when a
// report is supplied — metrics recomputation.
func Verify(desc *graph.TaskGraph, net *topology.Network, m *mapping.Mapping, rep *metrics.Report) []Violation {
	vs := VerifyMapping(desc, net, m)
	if rep != nil {
		vs = append(vs, VerifyMetrics(desc, net, m, rep)...)
	}
	return vs
}

// recomputable reports whether every task resolves to an in-range
// processor, the precondition for replaying the metrics arithmetic.
func recomputable(desc *graph.TaskGraph, net *topology.Network, m *mapping.Mapping) bool {
	if m.Part == nil || m.Place == nil || len(m.Part) != desc.NumTasks {
		return false
	}
	for t := 0; t < desc.NumTasks; t++ {
		if safeProc(net, m, t) < 0 {
			return false
		}
	}
	for _, p := range desc.Comm {
		for _, e := range p.Edges {
			if e.From < 0 || e.From >= desc.NumTasks || e.To < 0 || e.To >= desc.NumTasks {
				return false
			}
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
