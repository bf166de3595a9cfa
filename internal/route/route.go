// Package route implements Algorithm MM-Route (paper, Section 4.4):
// per-phase routing that assigns the communication edges of each
// synchronous phase to network links hop by hop, using repeated bipartite
// maximal matchings between unrouted edges (X) and links (Y) so that each
// matching round reuses no link — minimizing link contention within a
// phase. Dimension-ordered and random oblivious routers serve as
// baselines.
package route

//oregami:hot

import (
	"context"
	"fmt"
	"math/rand"

	"oregami/internal/mapping"
	"oregami/internal/matching"
	"oregami/internal/par"
	"oregami/internal/topology"
)

// Options parameterizes MM-Route.
type Options struct {
	// UseMaximum replaces the paper's greedy maximal matching with a
	// Hopcroft-Karp maximum matching per round (an ablation; more work
	// per round, potentially fewer rounds).
	UseMaximum bool
	// NoRefine disables the post-pass that reroutes edges through
	// less-loaded shortest paths (an ablation; the pure hop-by-hop
	// matching can strand load on hot links).
	NoRefine bool
	// Ctx carries cooperative cancellation into the matching rounds,
	// checked once per round (nil means no cancellation). Each edge's
	// next-hop links (NextLinks, a closed form on the regular
	// families) are found once per hop round. A matching round
	// touches one open link per forced edge it advances (forced edges
	// wait in per-link queues) and filters, sorts and matches the links
	// of the remaining choice edges, in time about linear in their
	// number (the per-edge sort is quadratic in a segment no longer
	// than the edge's degree). A round that matches nothing costs only
	// the choice edges.
	Ctx context.Context
	// Parallelism bounds RouteAll's per-phase fan-out: communication
	// phases route independently on up to this many goroutines
	// (0 = GOMAXPROCS, 1 = sequential). Each phase's routes are
	// deterministic on their own, so the merged result is bit-identical
	// at every setting. MMRoute itself routes a single phase and is
	// unaffected.
	Parallelism int
}

func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Stats reports per-phase routing quality.
type Stats struct {
	// Rounds is the number of matching rounds summed over hops.
	Rounds int
	// MaxContention is the maximum number of routes of this phase that
	// traverse any single link.
	MaxContention int
	// TotalHops is the sum of route lengths.
	TotalHops int
}

// MMRoute routes one communication phase: pairs[i] = (srcProc, dstProc)
// for each edge of the phase (pairs with src == dst get empty routes).
// It returns one route per pair plus statistics. It fails when a pair is
// unreachable (a degraded network can be disconnected) or when
// opt.Ctx is cancelled mid-phase.
func MMRoute(net *topology.Network, pairs [][2]int, opt Options) ([]topology.Route, Stats, error) {
	ctx := opt.ctx()
	routes := make([]topology.Route, len(pairs))
	// Every route follows shortest paths hop for hop (candidates only
	// ever step one hop closer), so pair i needs exactly Distance hops:
	// carve all route storage from one allocation instead of letting each
	// route's appends grow independently.
	// An edge at distance d has at most min(d, fan) next-hop links in
	// any hop round (its distance only falls), where fan is the
	// network's bound on NextLinks; hops sums that over the routed pairs.
	fan := net.MaxNextLinks()
	if fan == 0 {
		fan = 2 // no bound: start at two per edge and grow past it
	}
	total, maxLen, na, hops := 0, 0, 0, 0
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		d := net.Distance(p[0], p[1])
		if d < 0 {
			return nil, Stats{}, fmt.Errorf("route: no live path from processor %d to %d", p[0], p[1])
		}
		total += d
		maxLen = max(maxLen, d)
		na++
		hops += min(d, fan)
	}
	maxDeg := 0
	for v := 0; v < net.Processors(); v++ {
		if d := net.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}

	// Only the na routed pairs (src != dst) take part in the rounds, so
	// every per-edge working buffer is indexed by the edge's slot: its
	// rank among the routed pairs, pairOf[slot] its pair index. Slots
	// keep pair order, so every tie-break on edge indices is the one a
	// pair-indexed buffer gives; self pairs keep nil routes and cost
	// nothing here.
	// Working buffers are carved from one []int and one []bool slab
	// allocated for this call and re-sliced every hop round or matching
	// round; no result aliases them. An edge's position only changes
	// when it is matched, and a matched edge leaves the round, so the
	// links one hop closer to its destination are fixed for the whole
	// hop round: they are found once per hop round into hopBuf (edge
	// ei owns hopBuf[hopOff[ei]:hopEnd[ei]]), and each matching round
	// only filters them by the budget, in place. hopBuf holds hops
	// links, so its size follows the shortest-path fan-out of the
	// family, not na x maxDeg: on a hierarchy shortest paths are unique
	// (one link per edge) while a representative PE has a link to every
	// sibling at every level (16 on hier:4,4,4,8). Only a family
	// without a bound can outgrow it, and then grows it by append.
	// The int slab holds 9 ints per edge (the per-edge buffers),
	// hopBuf, 5 per link, the waiting and open lists, counts, and
	// refineRoutes' 4 per processor, the longest route and its
	// next-link stack; the bool slab holds unique and the memo's set.
	nl, n := net.NumLinks(), net.Processors()
	nw := min(nl, na)
	ints := make([]int, 9*na+hops+5*nl+2*nw+maxDeg+2+4*n+maxLen*(1+maxDeg))
	bools := make([]bool, na+n)
	pairOf := carve(&ints, na)
	pos := carve(&ints, na)
	active := carve(&ints, na)
	backing := make([]int, total)
	off, next := 0, 0 // next is the next free slot
	for i, p := range pairs {
		if p[0] != p[1] {
			d := net.Distance(p[0], p[1])
			routes[i] = topology.Route(backing[off : off : off+d])
			off += d
			pairOf[next], pos[next], active[next] = i, p[0], next
			next++
		}
	}
	var stats Stats
	linkUse := carve(&ints, nl)
	// Each hop round splits edges between the choice edges (remaining,
	// from the front) and the queued forced edges (qBuf, after them):
	// together they are the active edges, and remaining only shrinks
	// within the round.
	edges := carve(&ints, na)
	hopBuf := carve(&ints, hops)[:0]
	hopOff := carve(&ints, na)
	hopEnd := carve(&ints, na)
	candN := carve(&ints, na)
	order := carve(&ints, na)
	counts := carve(&ints, maxDeg+2)
	matchX := carve(&ints, na)
	// matchY stays all -1 between rounds: each greedy round undoes only
	// the links it matched or reserved.
	matchY := carve(&ints, nl)
	for i := range matchY {
		matchY[i] = -1
	}
	// An edge with exactly one next-hop link is forced: it can only ever
	// bid for that link, with candidate count 1, so it waits in the
	// link's FIFO queue (ascending slot) instead of being filtered,
	// sorted and offered the link every matching round. The queues are
	// one counting-sort CSR per hop round: link l's waiting edges are
	// qBuf[qHead[l]:qEnd[l]], waiting lists the links with a queue, and
	// open those of them still under the budget. unique[ei] records that
	// every hop of edge ei was forced, so its route is the only shortest
	// path and refinement cannot change it. Under UseMaximum every edge
	// stays a choice edge: Hopcroft-Karp needs the whole bipartite graph.
	qLen := carve(&ints, nl)
	qHead := carve(&ints, nl)
	qEnd := carve(&ints, nl)
	waiting := carve(&ints, nw)[:0]
	open := carve(&ints, nw)[:0]
	unique := carve(&bools, na)
	for ei := range unique {
		unique[ei] = true
	}

	// budget is the per-link usage ceiling currently allowed; it only
	// grows when some edge cannot progress under it, so link load is
	// leveled across the whole phase ("evenly distribute the edges of a
	// given color to the links"). A matched link was below the budget,
	// so no link's use ever exceeds it.
	budget := 1
	stalls := 0 // consecutive matching rounds that matched nothing
	for len(active) > 0 {
		// One hop round: every active edge must obtain a link for its
		// next hop via repeated matchings under the budget. First fix
		// each edge's next-hop links: those to neighbors one hop closer
		// to dst, in ascending neighbor order (NextLinks). Forced edges
		// are counted per link; the rest ("choice" edges) remain for the
		// matching rounds in ascending slot.
		hopBuf = hopBuf[:0]
		remaining := edges[:0]
		waiting = waiting[:0]
		queued := 0
		for _, ei := range active {
			hopOff[ei] = len(hopBuf)
			hopBuf = net.NextLinks(pos[ei], pairs[pairOf[ei]][1], hopBuf)
			hopEnd[ei] = len(hopBuf)
			if hopEnd[ei]-hopOff[ei] != 1 {
				unique[ei] = false
			}
			if hopEnd[ei]-hopOff[ei] == 1 && !opt.UseMaximum {
				l := hopBuf[hopOff[ei]]
				if qLen[l] == 0 {
					waiting = append(waiting, l)
				}
				qLen[l]++
				queued++
			} else {
				remaining = append(remaining, ei)
			}
		}
		qBuf := edges[len(remaining):len(active)]
		if queued > 0 {
			start := 0
			for _, l := range waiting {
				qHead[l], qEnd[l] = start, start
				start += qLen[l]
				qLen[l] = 0
			}
			for _, ei := range active {
				if hopEnd[ei]-hopOff[ei] == 1 && !opt.UseMaximum {
					l := hopBuf[hopOff[ei]]
					qBuf[qEnd[l]] = ei
					qEnd[l]++
				}
			}
		}
		open = open[:0]
		for _, l := range waiting {
			if linkUse[l] < budget {
				open = append(open, l)
			}
		}
		for queued > 0 || len(remaining) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
			stats.Rounds++
			// Each open link is reserved by its queue head: a candidate-
			// count-1 edge, so the greedy order below would offer it the
			// link before any other edge except a count-1 choice edge of
			// smaller index.
			for _, l := range open {
				matchY[l] = reserved
			}
			nRem := len(remaining)
			// X = remaining choice edges, Y = links; candidates are the
			// next-hop links with usage below the budget, tried coldest
			// first. Most-constrained edges match first. Each edge's
			// candidates are moved to the front of its own hopBuf
			// segment: edge xi (slot ei) owns
			// hopBuf[hopOff[ei]:hopOff[ei]+candN[xi]]. The segment keeps
			// every next-hop link, only reordered.
			for xi, ei := range remaining {
				seg := hopBuf[hopOff[ei]:hopEnd[ei]]
				c := 0
				for j, id := range seg {
					if linkUse[id] < budget {
						seg[c], seg[j] = id, seg[c]
						c++
					}
				}
				candN[xi] = c
				// Insertion-sort the candidates by (load, id) — a strict
				// total order (link ids are distinct), so the result
				// does not depend on the order an earlier round left
				// the segment in, and is the one sort.Slice produced
				// here before the flat-core refactor.
				seg = seg[:c]
				for i := 1; i < len(seg); i++ {
					for j := i; j > 0; j-- {
						la, lc := seg[j-1], seg[j]
						if linkUse[la] < linkUse[lc] || (linkUse[la] == linkUse[lc] && la < lc) {
							break
						}
						seg[j-1], seg[j] = lc, la
					}
				}
			}
			// Order edges by (candidate count, index) via counting sort:
			// buckets fill in ascending xi, which is exactly the strict
			// total order the previous sort.Slice computed.
			maxC := 0
			for xi := 0; xi < nRem; xi++ {
				c := candN[xi]
				counts[c]++
				if c > maxC {
					maxC = c
				}
			}
			slot := 0
			for c := 0; c <= maxC; c++ {
				n := counts[c]
				counts[c] = slot
				slot += n
			}
			ord := order[:nRem]
			for xi := 0; xi < nRem; xi++ {
				c := candN[xi]
				ord[counts[c]] = xi
				counts[c]++
			}
			for c := 0; c <= maxC; c++ {
				counts[c] = 0
			}
			mX := matchX[:nRem]
			if opt.UseMaximum {
				b := matching.NewBipartite(nRem, nl)
				for _, xi := range ord {
					ei := remaining[xi]
					for _, id := range hopBuf[hopOff[ei] : hopOff[ei]+candN[xi]] {
						b.AddEdge(xi, id)
					}
				}
				bx, _ := b.MaximumMatching()
				copy(mX, bx)
			} else {
				// Greedy maximal matching straight over the candidate
				// segments, scanning X in most-constrained-first order —
				// what greedyInOrder did over a per-round Bipartite. A
				// reserved link counts as taken, except by a lone-
				// candidate edge that precedes the link's queue head.
				for i := range mX {
					mX[i] = -1
				}
				for _, xi := range ord {
					ei := remaining[xi]
					seg := hopBuf[hopOff[ei] : hopOff[ei]+candN[xi]]
					if len(seg) == 1 {
						id := seg[0]
						if y := matchY[id]; y == -1 || (y == reserved && remaining[xi] < qBuf[qHead[id]]) {
							mX[xi] = id
							matchY[id] = xi
						}
						continue
					}
					for _, id := range seg {
						if matchY[id] == -1 {
							mX[xi] = id
							matchY[id] = xi
							break
						}
					}
				}
			}
			// Every open link is matched: by its queue head, which
			// advances, or by a choice edge that came first.
			progressed := len(open) > 0
			for _, l := range open {
				if matchY[l] == reserved {
					ei := qBuf[qHead[l]]
					advance(net, &routes[pairOf[ei]], &pos[ei], linkUse, l)
					qHead[l]++
					queued--
				}
				matchY[l] = -1
			}
			k := 0
			for xi, ei := range remaining {
				link := mX[xi]
				if link == -1 {
					remaining[k] = ei
					k++
					continue
				}
				progressed = true
				matchY[link] = -1 // undo the greedy match (a no-op for Hopcroft-Karp)
				advance(net, &routes[pairOf[ei]], &pos[ei], linkUse, link)
			}
			remaining = remaining[:k]
			// Links that saturated or drained leave the open list.
			k = 0
			for _, l := range open {
				if qHead[l] < qEnd[l] && linkUse[l] < budget {
					open[k] = l
					k++
				}
			}
			open = open[:k]
			if progressed {
				stalls = 0
				continue
			}
			// Every waiting edge is blocked by the budget; relax it. The
			// blocking links were all at the old budget, so after the
			// raise every edge with a next hop can match: a second
			// fruitless round in a row means no waiting edge has one.
			if stalls++; stalls == 2 {
				ei := remaining[0]
				i := pairOf[ei]
				return nil, stats, fmt.Errorf("route: pair %d (%d->%d) has no shortest next hop at processor %d",
					i, pairs[i][0], pairs[i][1], pos[ei])
			}
			budget++
			k = 0
			for _, l := range waiting {
				if qHead[l] < qEnd[l] {
					waiting[k] = l
					k++
					if linkUse[l] < budget {
						open = append(open, l)
					}
				}
			}
			waiting = waiting[:k]
		}
		// Advance: drop edges that reached their destination.
		k := 0
		for _, ei := range active {
			if pos[ei] != pairs[pairOf[ei]][1] {
				active[k] = ei
				k++
			}
		}
		active = active[:k]
	}
	if !opt.NoRefine {
		// Only edges with a choice somewhere are refined: pairOf is
		// compacted in place to their pair indices, still ascending.
		k := 0
		for ei, i := range pairOf {
			if !unique[ei] {
				pairOf[k] = i
				k++
			}
		}
		refineRoutes(net, pairs, routes, linkUse, pairOf[:k], ints, bools)
	}
	for _, u := range linkUse {
		if u > stats.MaxContention {
			stats.MaxContention = u
		}
	}
	for _, r := range routes {
		stats.TotalHops += len(r)
	}
	return routes, stats, nil
}

// reserved marks, in matchY, an open link held by its queue head.
const reserved = -2

// carve cuts the first k elements off *slab and returns them, capped at
// k so that an append past them reallocates instead of overwriting the
// next buffer.
func carve[T any](slab *[]T, k int) []T {
	buf := (*slab)[:k:k]
	*slab = (*slab)[k:]
	return buf
}

// advance moves an edge at *at along route *r across link id.
func advance(net *topology.Network, r *topology.Route, at *int, linkUse []int, id int) {
	*r = append(*r, id)
	linkUse[id]++
	*at = net.Link(id).Other(*at)
}

// refineRoutes levels link load: each route of the pairs listed in
// refine (ascending pair indices, src != dst) is removed and replaced by
// the shortest path minimizing (max link load, total link load) over the
// shortest-path DAG, repeating until a sweep makes no change or after 4
// sweeps. MM-Route leaves out the pairs whose every hop was forced: they
// have exactly one shortest path, which the DP would return unchanged.
// The DP memo, the path buffer and the memo's next-link stack are carved
// from ints (at least 4·Processors plus L·(1+maxDegree) for the longest
// route L) and bools (at least Processors), zeroed.
func refineRoutes(net *topology.Network, pairs [][2]int, routes []topology.Route, linkUse []int, refine []int, ints []int, bools []bool) {
	n := net.Processors()
	maxLen := 0
	for _, i := range refine {
		maxLen = max(maxLen, len(routes[i]))
	}
	memo := congMemo{
		stamp: carve(&ints, n),
		max:   carve(&ints, n),
		sum:   carve(&ints, n),
		hop:   carve(&ints, n),
		set:   carve(&bools, n),
	}
	buf := carve(&ints, maxLen)
	memo.stack = ints[:0]
	for sweep := 0; sweep < 4; sweep++ {
		changed := false
		for _, i := range refine {
			p := pairs[i]
			for _, id := range routes[i] {
				linkUse[id]--
			}
			nr := minCongestionRoute(net, p[0], p[1], linkUse, &memo, buf[:0])
			// Copy-on-change: the replacement usually equals the current
			// route after the first sweep, so only a genuinely different
			// route earns a fresh allocation.
			same := len(nr) == len(routes[i])
			if same {
				for j := range nr {
					if nr[j] != routes[i][j] {
						same = false
						break
					}
				}
			}
			if !same {
				changed = true
				fresh := make(topology.Route, len(nr))
				copy(fresh, nr)
				routes[i] = fresh
			}
			for _, id := range routes[i] {
				linkUse[id]++
			}
		}
		if !changed {
			return
		}
	}
}

// congMemo is the per-refine memo of minCongestionRoute's dynamic
// program, flat slices indexed by processor instead of the per-call
// map[int]value this replaces. stamp[v] == epoch marks v's entry live
// for the current call, so consecutive calls reuse the buffers without
// clearing them.
type congMemo struct {
	stamp []int
	epoch int
	// max/sum: bottleneck and total link load of the best v->dst path;
	// hop: next link id on it; set: a closer neighbor exists (or v=dst).
	max, sum, hop []int
	set           []bool
	// stack holds the next links of every processor solve is visiting:
	// a call appends its own past its caller's and cuts them off before
	// returning.
	stack []int
}

// solve computes the DP value at v over the shortest-path DAG toward
// dst. The recursion terminates because every next link leads one hop
// closer to dst.
func (m *congMemo) solve(net *topology.Network, linkUse []int, dst, v int) (max, sum int, set bool) {
	if m.stamp[v] == m.epoch {
		return m.max[v], m.sum[v], m.set[v]
	}
	curMax, curSum, curHop := 0, 0, 0
	curSet := false
	start := len(m.stack)
	m.stack = net.NextLinks(v, dst, m.stack)
	for i, end := start, len(m.stack); i < end; i++ {
		id := m.stack[i]
		sMax, sSum, _ := m.solve(net, linkUse, dst, net.Link(id).Other(v))
		if linkUse[id] > sMax {
			sMax = linkUse[id]
		}
		s := sSum + linkUse[id]
		if !curSet || sMax < curMax || (sMax == curMax && s < curSum) {
			curMax, curSum, curHop, curSet = sMax, s, id, true
		}
	}
	m.stack = m.stack[:start]
	m.stamp[v] = m.epoch
	m.max[v], m.sum[v], m.hop[v], m.set[v] = curMax, curSum, curHop, curSet
	return curMax, curSum, curSet
}

// minCongestionRoute finds, among shortest src->dst paths, one minimizing
// first the maximum link load and then the total load, by dynamic
// programming over the shortest-path DAG. The walk is written into buf
// (refineRoutes' working buffer); callers copy it out if they keep it.
func minCongestionRoute(net *topology.Network, src, dst int, linkUse []int, m *congMemo, buf []int) []int {
	m.epoch++
	m.stamp[dst] = m.epoch
	m.max[dst], m.sum[dst], m.hop[dst], m.set[dst] = 0, 0, -1, true
	route := buf
	at := src
	for at != dst {
		if _, _, set := m.solve(net, linkUse, dst, at); !set {
			return route
		}
		route = append(route, m.hop[at])
		at = net.Link(m.hop[at]).Other(at)
	}
	return route
}

// ECube routes each pair with the deterministic dimension-ordered route:
// e-cube on hypercubes, XY on meshes/tori, and the lexicographically
// first shortest path elsewhere. This is the communication-oblivious
// baseline of the paper's introduction.
func ECube(net *topology.Network, pairs [][2]int) []topology.Route {
	routes := make([]topology.Route, len(pairs))
	for i, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		if r, ok := net.DimensionOrderRoute(p[0], p[1]); ok {
			routes[i] = r
			continue
		}
		if r, ok := net.XYRoute(p[0], p[1]); ok {
			routes[i] = r
			continue
		}
		routes[i] = firstShortest(net, p[0], p[1])
	}
	return routes
}

// RandomShortest routes each pair along an independently random shortest
// path.
func RandomShortest(net *topology.Network, pairs [][2]int, seed int64) []topology.Route {
	r := rand.New(rand.NewSource(seed))
	routes := make([]topology.Route, len(pairs))
	var hops []int
	for i, p := range pairs {
		at := p[0]
		for at != p[1] {
			hops = net.NextLinks(at, p[1], hops[:0])
			if len(hops) == 0 {
				routes[i] = nil // unreachable on a degraded network
				break
			}
			id := hops[r.Intn(len(hops))]
			routes[i] = append(routes[i], id)
			at = net.Link(id).Other(at)
		}
	}
	return routes
}

func firstShortest(net *topology.Network, src, dst int) topology.Route {
	var route topology.Route
	var hops []int
	at := src
	for at != dst {
		hops = net.NextLinks(at, dst, hops[:0])
		if len(hops) == 0 {
			return nil
		}
		route = append(route, hops[0])
		at = net.Link(hops[0]).Other(at)
	}
	return route
}

// MaxContention returns the maximum per-link usage of a route set.
func MaxContention(net *topology.Network, routes []topology.Route) int {
	use := make([]int, net.NumLinks())
	max := 0
	for _, r := range routes {
		for _, id := range r {
			use[id]++
			if use[id] > max {
				max = use[id]
			}
		}
	}
	return max
}

// PhasePairs extracts the (srcProc, dstProc) pair list for one phase of
// a contracted+embedded mapping.
func PhasePairs(m *mapping.Mapping, phaseName string) ([][2]int, error) {
	p := m.Graph.CommPhaseByName(phaseName)
	if p == nil {
		return nil, fmt.Errorf("route: unknown phase %q", phaseName)
	}
	pairs := make([][2]int, len(p.Edges))
	for i, e := range p.Edges {
		pairs[i] = [2]int{m.ProcOf(e.From), m.ProcOf(e.To)}
	}
	return pairs, nil
}

// RouteAll runs MM-Route on every communication phase of the mapping,
// filling m.Routes. Phases are independent — no link state carries from
// one to the next — so they fan out across opt.Parallelism workers, each
// writing only its own slot; the slots merge into m.Routes in phase
// order afterwards. It returns per-phase statistics keyed by phase name.
// On failure (unreachable pair, cancellation) m.Routes is left untouched
// and the error reported is the one from the earliest failing phase.
func RouteAll(m *mapping.Mapping, opt Options) (map[string]Stats, error) {
	phases := m.Graph.Comm
	workers := par.Resolve(opt.Parallelism)
	type slot struct {
		routes []topology.Route
		st     Stats
	}
	slots := make([]slot, len(phases))
	err := par.ForEach(opt.ctx(), workers, len(phases), func(i int) error {
		p := phases[i]
		pairs, err := PhasePairs(m, p.Name)
		if err != nil {
			return err
		}
		routes, st, err := MMRoute(m.Net, pairs, opt)
		if err != nil {
			return fmt.Errorf("route: phase %q: %w", p.Name, err)
		}
		slots[i] = slot{routes: routes, st: st}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats := make(map[string]Stats, len(phases))
	for i, p := range phases {
		m.Routes[p.Name] = slots[i].routes
		stats[p.Name] = slots[i].st
	}
	return stats, nil
}

// RouteAllBaseline fills m.Routes with the oblivious router, for
// comparison experiments. kind is "ecube" or "random".
func RouteAllBaseline(m *mapping.Mapping, kind string, seed int64) error {
	for _, p := range m.Graph.Comm {
		pairs, err := PhasePairs(m, p.Name)
		if err != nil {
			return err
		}
		switch kind {
		case "ecube":
			m.Routes[p.Name] = ECube(m.Net, pairs)
		case "random":
			m.Routes[p.Name] = RandomShortest(m.Net, pairs, seed)
		default:
			return fmt.Errorf("route: unknown baseline %q", kind)
		}
	}
	return nil
}
