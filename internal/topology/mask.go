package topology

import (
	"fmt"
	"sort"
)

// Masked returns a degraded view of the network in which the given
// processors and links have failed. The view keeps the full processor id
// space and the full link id table (so routes and metrics arrays keep
// their indices), but failed links — and every link incident to a failed
// processor — disappear from the adjacency structure: Neighbors, Degree,
// LinkBetween, NextHops, and RouteEndpoints all answer as if the dead
// hardware were unplugged, and Distance falls back to BFS over the live
// subgraph (returning -1 between disconnected live processors).
//
// Masking an already-degraded view unions the failures, which is how
// incremental repair layers successive faults onto one machine.
func (nw *Network) Masked(failedProcs, failedLinks []int) (*Network, error) {
	m := &Network{
		Kind:     nw.Kind,
		Name:     nw.Name,
		N:        nw.N,
		Dims:     nw.Dims,
		hier:     nw.hier,
		links:    nw.links,
		linkID:   nw.linkID,
		degraded: true,
		deadProc: make([]bool, nw.N),
		deadLink: make([]bool, len(nw.links)),
		adj:      make([][]int, nw.N),
	}
	if !nw.degraded {
		m.Name = nw.Name + "/degraded"
	}
	// Union any failures already present in this view.
	for p, dead := range nw.deadProc {
		m.deadProc[p] = dead
	}
	for l, dead := range nw.deadLink {
		m.deadLink[l] = dead
	}
	for _, p := range failedProcs {
		if p < 0 || p >= nw.N {
			return nil, fmt.Errorf("topology: failed processor %d out of range 0..%d", p, nw.N-1)
		}
		m.deadProc[p] = true
	}
	for _, l := range failedLinks {
		if l < 0 || l >= len(nw.links) {
			return nil, fmt.Errorf("topology: failed link %d out of range 0..%d", l, len(nw.links)-1)
		}
		m.deadLink[l] = true
	}
	for _, l := range nw.links {
		if m.deadProc[l.A] || m.deadProc[l.B] {
			m.deadLink[l.ID] = true
		}
	}
	for _, l := range nw.links {
		if m.deadLink[l.ID] {
			continue
		}
		m.adj[l.A] = append(m.adj[l.A], l.B)
		m.adj[l.B] = append(m.adj[l.B], l.A)
	}
	for _, a := range m.adj {
		sort.Ints(a)
	}
	m.buildAdjLink()
	return m, nil
}

// Degraded reports whether this network is a masked view with failures.
func (nw *Network) Degraded() bool { return nw.degraded }

// Alive reports whether processor v has not failed.
func (nw *Network) Alive(v int) bool {
	return nw.deadProc == nil || !nw.deadProc[v]
}

// LinkAlive reports whether link id has not failed (directly or through a
// failed endpoint processor).
func (nw *Network) LinkAlive(id int) bool {
	return nw.deadLink == nil || !nw.deadLink[id]
}

// NumLive returns the number of live processors.
func (nw *Network) NumLive() int {
	if nw.deadProc == nil {
		return nw.N
	}
	live := 0
	for _, dead := range nw.deadProc {
		if !dead {
			live++
		}
	}
	return live
}

// FailedProcessors returns the sorted failed processor ids of this view.
func (nw *Network) FailedProcessors() []int {
	var out []int
	for p, dead := range nw.deadProc {
		if dead {
			out = append(out, p)
		}
	}
	return out
}

// FailedLinks returns the sorted failed link ids of this view, including
// links dead only through a failed endpoint.
func (nw *Network) FailedLinks() []int {
	var out []int
	for l, dead := range nw.deadLink {
		if dead {
			out = append(out, l)
		}
	}
	return out
}
