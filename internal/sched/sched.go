// Package sched implements the scheduling extension sketched in the
// paper's Section 6 ("Ongoing and Future Work"): task synchrony sets —
// sets of tasks, one per processor, that should execute at the same
// time — and per-processor local scheduling directives expressed in a
// path-expression-like notation (after Campbell & Habermann's path
// expressions, the notation the paper cites).
//
// Synchronous computations step through their phases in lock step; when
// contraction places several tasks on one processor, the processor must
// multiplex them. Identifying synchrony sets lets each processor order
// its local tasks so that communication partners execute in matching
// slots, which shortens the critical path of each communication phase.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"oregami/internal/graph"
	"oregami/internal/mapping"
)

// SynchronySet is one slot of the lock-step schedule: at most one task
// per processor, executing simultaneously across the machine.
type SynchronySet []int

// Schedule is the full local-scheduling solution for a mapping.
type Schedule struct {
	// Sets are the synchrony sets in execution order. Every task
	// appears in exactly one set.
	Sets []SynchronySet
	// SlotOf[t] is the index of the set containing task t.
	SlotOf []int
	// Local[p] lists processor p's tasks in slot order.
	Local [][]int
}

// Build computes synchrony sets for a contracted and embedded mapping.
// Slots are filled greedily: within each processor, tasks are ordered to
// align communication partners — a task prefers the slot its partners
// occupy (computed over the collapsed task graph), falling back to the
// first free slot. The number of sets equals the maximum tasks per
// processor.
func Build(m *mapping.Mapping) (*Schedule, error) {
	if m.Part == nil || m.Place == nil {
		return nil, fmt.Errorf("sched: mapping is not contracted/embedded")
	}
	n := m.Graph.NumTasks
	local := make([][]int, m.Net.N)
	for t := 0; t < n; t++ {
		p := m.ProcOf(t)
		local[p] = append(local[p], t)
	}
	slots := 0
	for _, ts := range local {
		if len(ts) > slots {
			slots = len(ts)
		}
	}
	adj := m.Graph.CSR()
	slotOf := make([]int, n)
	for i := range slotOf {
		slotOf[i] = -1
	}
	// Process processors by descending load so the busiest ones anchor
	// the slot structure; within a processor, heaviest communicators
	// first.
	procOrder := make([]int, m.Net.N)
	for i := range procOrder {
		procOrder[i] = i
	}
	sort.SliceStable(procOrder, func(a, b int) bool {
		return len(local[procOrder[a]]) > len(local[procOrder[b]])
	})
	for _, p := range procOrder {
		tasks := append([]int(nil), local[p]...)
		sort.SliceStable(tasks, func(a, b int) bool {
			return weightOf(adj, tasks[a]) > weightOf(adj, tasks[b])
		})
		used := make([]bool, slots)
		var unplaced []int
		for _, t := range tasks {
			// Prefer the slot where t's partners already sit, weighted
			// by communication volume.
			votes := make([]float64, slots)
			ws := adj.RowWeights(t)
			for i, u := range adj.Neighbors(t) {
				if s := slotOf[u]; s >= 0 {
					votes[s] += ws[i]
				}
			}
			best, bestV := -1, 0.0
			for s := 0; s < slots; s++ {
				if used[s] {
					continue
				}
				if best == -1 || votes[s] > bestV {
					best, bestV = s, votes[s]
				}
			}
			if best == -1 || bestV == 0 {
				// No informative vote: defer to fill gaps in order.
				unplaced = append(unplaced, t)
				continue
			}
			slotOf[t] = best
			used[best] = true
		}
		next := 0
		for _, t := range unplaced {
			for used[next] {
				next++
			}
			slotOf[t] = next
			used[next] = true
		}
	}
	sched := &Schedule{SlotOf: slotOf, Sets: make([]SynchronySet, slots), Local: make([][]int, m.Net.N)}
	for t := 0; t < n; t++ {
		sched.Sets[slotOf[t]] = append(sched.Sets[slotOf[t]], t)
	}
	for s := range sched.Sets {
		sort.Ints(sched.Sets[s])
	}
	for p := 0; p < m.Net.N; p++ {
		byslot := append([]int(nil), local[p]...)
		sort.Slice(byslot, func(a, b int) bool { return slotOf[byslot[a]] < slotOf[byslot[b]] })
		sched.Local[p] = byslot
	}
	if err := sched.validate(m); err != nil {
		return nil, err
	}
	return sched, nil
}

func weightOf(adj *graph.CSR, t int) float64 {
	var w float64
	for _, x := range adj.RowWeights(t) {
		w += x
	}
	return w
}

// validate checks the synchrony-set invariants: every task in exactly
// one set, and no set holds two tasks of one processor.
func (s *Schedule) validate(m *mapping.Mapping) error {
	seen := make([]bool, m.Graph.NumTasks)
	for si, set := range s.Sets {
		procs := make(map[int]int)
		for _, t := range set {
			if seen[t] {
				return fmt.Errorf("sched: task %d in two sets", t)
			}
			seen[t] = true
			p := m.ProcOf(t)
			if prev, dup := procs[p]; dup {
				return fmt.Errorf("sched: set %d holds tasks %d and %d on processor %d", si, prev, t, p)
			}
			procs[p] = t
		}
	}
	for t, ok := range seen {
		if !ok {
			return fmt.Errorf("sched: task %d unscheduled", t)
		}
	}
	return nil
}

// Directive renders processor p's local schedule as a path expression:
// the allowed multiplexing of its tasks, repeated per outer iteration,
// e.g. "path (t1 ; t9)* end". Tasks appear in synchrony-slot order.
func (s *Schedule) Directive(m *mapping.Mapping, p int) string {
	if len(s.Local[p]) == 0 {
		return "path eps end"
	}
	parts := make([]string, len(s.Local[p]))
	for i, t := range s.Local[p] {
		parts[i] = "t" + m.Graph.Labels[t]
	}
	return "path (" + strings.Join(parts, " ; ") + ")* end"
}

// Render prints all synchrony sets and per-processor directives.
func (s *Schedule) Render(m *mapping.Mapping) string {
	var b strings.Builder
	for i, set := range s.Sets {
		fmt.Fprintf(&b, "synchrony set %d:", i)
		for _, t := range set {
			fmt.Fprintf(&b, " %s@p%d", m.Graph.Labels[t], m.ProcOf(t))
		}
		b.WriteByte('\n')
	}
	for p := 0; p < m.Net.N; p++ {
		fmt.Fprintf(&b, "proc %3d: %s\n", p, s.Directive(m, p))
	}
	return b.String()
}

// Alignment scores how well a communication phase lines up with the
// synchrony sets: the fraction of interprocessor edges whose endpoints
// share a slot (those transfers need no cross-slot buffering). Higher is
// better; 1.0 means perfectly aligned.
func (s *Schedule) Alignment(m *mapping.Mapping, phaseName string) (float64, error) {
	p := m.Graph.CommPhaseByName(phaseName)
	if p == nil {
		return 0, fmt.Errorf("sched: unknown phase %q", phaseName)
	}
	aligned, total := 0, 0
	for _, e := range p.Edges {
		if e.From == e.To || m.ProcOf(e.From) == m.ProcOf(e.To) {
			continue
		}
		total++
		if s.SlotOf[e.From] == s.SlotOf[e.To] {
			aligned++
		}
	}
	if total == 0 {
		return 1, nil
	}
	return float64(aligned) / float64(total), nil
}
