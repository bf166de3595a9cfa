package topology

// Route is a path through the network expressed as the sequence of link
// ids traversed from source to destination (the representation used by
// MM-Route and by the paper's Fig 6 routing table).
type Route []int

// ShortestRoutes enumerates shortest routes from src to dst as link-id
// sequences, in NextLinks order at every hop. At most limit routes are
// returned (limit <= 0 means all). For src == dst it returns a single
// empty route.
func (nw *Network) ShortestRoutes(src, dst, limit int) []Route {
	if src == dst {
		return []Route{{}}
	}
	var out []Route
	cur := make([]int, 0, nw.Distance(src, dst))
	// stack holds, for each processor on the current walk, its next
	// links; a call appends its own past its caller's and cuts them off
	// before returning.
	var stack []int
	var walk func(v int)
	walk = func(v int) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if v == dst {
			out = append(out, append(Route(nil), cur...))
			return
		}
		start := len(stack)
		stack = nw.NextLinks(v, dst, stack)
		for i, end := start, len(stack); i < end; i++ {
			id := stack[i]
			cur = append(cur, id)
			walk(nw.links[id].Other(v))
			cur = cur[:len(cur)-1]
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		stack = stack[:start]
	}
	walk(src)
	return out
}

// CountShortestRoutes returns the number of distinct shortest paths from
// src to dst without materializing them.
func (nw *Network) CountShortestRoutes(src, dst int) int {
	if src == dst {
		return 1
	}
	memo := make(map[int]int)
	var stack []int // as in ShortestRoutes
	var count func(v int) int
	count = func(v int) int {
		if v == dst {
			return 1
		}
		if c, ok := memo[v]; ok {
			return c
		}
		c := 0
		start := len(stack)
		stack = nw.NextLinks(v, dst, stack)
		for i, end := start, len(stack); i < end; i++ {
			c += count(nw.links[stack[i]].Other(v))
		}
		stack = stack[:start]
		memo[v] = c
		return c
	}
	return count(src)
}

// RouteEndpoints replays a route from src and returns the processor
// sequence it visits, or ok=false if the link sequence is not a valid
// walk starting at src. On a degraded view, a route traversing a failed
// link is invalid.
func (nw *Network) RouteEndpoints(src int, r Route) ([]int, bool) {
	path := make([]int, 1, len(r)+1)
	path[0] = src
	at := src
	for _, id := range r {
		at2, ok := nw.step(at, id)
		if !ok {
			return nil, false
		}
		at = at2
		path = append(path, at)
	}
	return path, true
}

// RouteDest replays a route from src and returns only the processor it
// ends at, or ok=false if the link sequence is not a valid walk. It is
// RouteEndpoints without the path allocation, for validation loops that
// only care where a route lands.
func (nw *Network) RouteDest(src int, r Route) (int, bool) {
	at := src
	for _, id := range r {
		at2, ok := nw.step(at, id)
		if !ok {
			return 0, false
		}
		at = at2
	}
	return at, true
}

// step crosses link id from processor at, failing on invalid or dead
// links and on links not incident to at.
func (nw *Network) step(at, id int) (int, bool) {
	if id < 0 || id >= len(nw.links) {
		return 0, false
	}
	if nw.deadLink != nil && nw.deadLink[id] {
		return 0, false
	}
	l := nw.links[id]
	switch at {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	}
	return 0, false
}

// DimensionOrderRoute returns the e-cube route from src to dst on a
// hypercube: correct bits from lowest to highest dimension. This is the
// communication-oblivious baseline router the paper's introduction
// alludes to ("message routing that does not utilize information about
// the communication patterns").
func (nw *Network) DimensionOrderRoute(src, dst int) (Route, bool) {
	if nw.Kind != "hypercube" {
		return nil, false
	}
	var r Route
	at := src
	for b := 0; b < nw.Dims[0]; b++ {
		bit := 1 << uint(b)
		if at&bit != dst&bit {
			next := at ^ bit
			id, ok := nw.LinkBetween(at, next)
			if !ok {
				return nil, false
			}
			r = append(r, id)
			at = next
		}
	}
	return r, true
}

// XYRoute returns the dimension-ordered (column-then-row) route on a mesh
// or torus, the mesh analogue of e-cube routing.
func (nw *Network) XYRoute(src, dst int) (Route, bool) {
	if nw.Kind != "mesh" && nw.Kind != "torus" {
		return nil, false
	}
	rdim, cdim := nw.Dims[0], nw.Dims[1]
	// step moves coordinate cur one unit toward want along an axis of the
	// given extent, wrapping on a torus when the wrap direction is
	// strictly shorter.
	step := func(cur, want, extent int) int {
		fwd := (want - cur + extent) % extent
		bwd := (cur - want + extent) % extent
		d := 1
		if nw.Kind == "torus" && bwd < fwd {
			d = -1
		} else if nw.Kind == "mesh" && want < cur {
			d = -1
		}
		return ((cur+d)%extent + extent) % extent
	}
	var route Route
	sr, sc := src/cdim, src%cdim
	dr, dc := dst/cdim, dst%cdim
	at := src
	for sc != dc {
		sc = step(sc, dc, cdim)
		id, ok := nw.LinkBetween(at, sr*cdim+sc)
		if !ok {
			return nil, false
		}
		route = append(route, id)
		at = sr*cdim + sc
	}
	for sr != dr {
		sr = step(sr, dr, rdim)
		id, ok := nw.LinkBetween(at, sr*cdim+sc)
		if !ok {
			return nil, false
		}
		route = append(route, id)
		at = sr*cdim + sc
	}
	return route, true
}
