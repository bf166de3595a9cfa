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

	"oregami/internal/graph"
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
	// checked once per round (nil means no cancellation). The Distance
	// scans that find each edge's next-hop links run once per hop
	// round; a matching round only filters, sorts and matches those
	// links, in time about linear in their number (the per-edge sort is
	// quadratic in a segment no longer than the edge's degree).
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
	scr := graph.GetScratch()
	defer scr.Release()

	pos := scr.Ints(len(pairs))
	active := scr.IntsCap(len(pairs))
	for i, p := range pairs {
		pos[i] = p[0]
		if p[0] != p[1] {
			if net.Distance(p[0], p[1]) < 0 {
				return nil, Stats{}, fmt.Errorf("route: no live path from processor %d to %d", p[0], p[1])
			}
			active = append(active, i)
		}
	}
	var stats Stats
	linkUse := scr.Ints(net.NumLinks())

	// Every route follows shortest paths hop for hop (candidates only
	// ever step one hop closer), so pair i needs exactly Distance hops:
	// carve all route storage from one allocation instead of letting each
	// route's appends grow independently.
	total := 0
	for _, i := range active {
		total += net.Distance(pairs[i][0], pairs[i][1])
	}
	backing := make([]int, total)
	off := 0
	for _, i := range active {
		d := net.Distance(pairs[i][0], pairs[i][1])
		routes[i] = topology.Route(backing[off : off : off+d])
		off += d
	}

	maxDeg := 0
	for v := 0; v < net.Processors(); v++ {
		if d := net.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	// Buffers borrowed once and re-sliced every hop round or matching
	// round. An edge's position only changes when it is matched, and a
	// matched edge leaves the round, so the links one hop closer to its
	// destination are fixed for the whole hop round: they are computed
	// once per hop round into hopBuf (edge ei owns
	// hopBuf[hopOff[ei]:hopEnd[ei]]), and each matching round only
	// filters them by the budget. hopBuf starts at two links per pair
	// and is re-borrowed larger before a segment could overflow it, so
	// append never grows it and its size follows the shortest-path
	// fan-out the phase meets, not len(pairs) x maxDeg: on a hierarchy
	// shortest paths are mostly unique while a representative PE has a
	// link to every sibling at every level (16 on hier:4,4,4,8).
	// Candidates are a subset of the next-hop links, so candBuf,
	// re-borrowed whenever a hop round's hopBuf outgrows it, never
	// overflows within the round.
	remaining := scr.IntsCap(len(pairs))
	hopBuf := scr.IntsCap(2 * len(pairs))
	hopOff := scr.Ints(len(pairs))
	hopEnd := scr.Ints(len(pairs))
	var candBuf []int
	candOff := scr.Ints(len(pairs) + 1)
	order := scr.Ints(len(pairs))
	counts := scr.Ints(maxDeg + 2)
	matchX := scr.Ints(len(pairs))
	// matchY stays all -1 between rounds: each greedy round undoes only
	// the links it matched.
	matchY := scr.IntsFill(net.NumLinks(), -1)

	// budget is the per-link usage ceiling currently allowed; it only
	// grows when some edge cannot progress under it, so link load is
	// leveled across the whole phase ("evenly distribute the edges of a
	// given color to the links").
	budget := 1
	for len(active) > 0 {
		// One hop round: every active edge must obtain a link for its
		// next hop via repeated matchings under the budget. First fix
		// each edge's next-hop links: those to neighbors one hop closer
		// to dst, in ascending neighbor order (NextHops' order, without
		// its per-call slice or a LinkBetween lookup per hop).
		hopBuf = hopBuf[:0]
		for _, ei := range active {
			hopOff[ei] = len(hopBuf)
			dst := pairs[ei][1]
			if base := net.Distance(pos[ei], dst); base >= 0 {
				nbrs := net.Neighbors(pos[ei])
				lids := net.NeighborLinks(pos[ei])
				if len(hopBuf)+len(nbrs) > cap(hopBuf) {
					hopBuf = append(scr.IntsCap(2*cap(hopBuf)+len(nbrs)), hopBuf...)
				}
				for hi, h := range nbrs {
					if net.Distance(h, dst) == base-1 {
						hopBuf = append(hopBuf, lids[hi])
					}
				}
			}
			hopEnd[ei] = len(hopBuf)
		}
		if len(hopBuf) > cap(candBuf) {
			candBuf = scr.IntsCap(len(hopBuf))
		}
		remaining = append(remaining[:0], active...)
		for len(remaining) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
			stats.Rounds++
			nRem := len(remaining)
			// X = remaining edges, Y = links; candidates are the
			// next-hop links with usage below the budget, tried coldest
			// first. Most-constrained edges match first. Candidate
			// lists live as segments of candBuf: edge xi owns
			// candBuf[candOff[xi]:candOff[xi+1]].
			candBuf = candBuf[:0]
			for xi, ei := range remaining {
				candOff[xi] = len(candBuf)
				for _, id := range hopBuf[hopOff[ei]:hopEnd[ei]] {
					if linkUse[id] < budget {
						candBuf = append(candBuf, id)
					}
				}
				// Insertion-sort the segment by (load, id) — a strict
				// total order (link ids are distinct), so the result is
				// the one sort.Slice produced here before the flat-core
				// refactor.
				seg := candBuf[candOff[xi]:]
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
			candOff[nRem] = len(candBuf)
			// Order edges by (candidate count, index) via counting sort:
			// buckets fill in ascending xi, which is exactly the strict
			// total order the previous sort.Slice computed.
			maxC := 0
			for xi := 0; xi < nRem; xi++ {
				c := candOff[xi+1] - candOff[xi]
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
				c := candOff[xi+1] - candOff[xi]
				ord[counts[c]] = xi
				counts[c]++
			}
			for c := 0; c <= maxC; c++ {
				counts[c] = 0
			}
			mX := matchX[:nRem]
			if opt.UseMaximum {
				b := matching.NewBipartite(nRem, net.NumLinks())
				for _, xi := range ord {
					for _, id := range candBuf[candOff[xi]:candOff[xi+1]] {
						b.AddEdge(xi, id)
					}
				}
				bx, _ := b.MaximumMatching()
				copy(mX, bx)
			} else {
				// Greedy maximal matching straight over the candidate
				// segments, scanning X in most-constrained-first order —
				// what greedyInOrder did over a per-round Bipartite.
				for i := range mX {
					mX[i] = -1
				}
				for _, xi := range ord {
					for _, id := range candBuf[candOff[xi]:candOff[xi+1]] {
						if matchY[id] == -1 {
							mX[xi] = id
							matchY[id] = xi
							break
						}
					}
				}
			}
			progressed := false
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
				routes[ei] = append(routes[ei], link)
				linkUse[link]++
				l := net.Link(link)
				if pos[ei] == l.A {
					pos[ei] = l.B
				} else {
					pos[ei] = l.A
				}
			}
			if !progressed {
				// Every remaining edge is blocked by the budget; relax it.
				// Reachability was checked up front, so the walk always
				// terminates — the guard is purely defensive.
				if budget > net.NumLinks()*len(pairs)+1 {
					return nil, stats, fmt.Errorf("route: no progress with budget %d (disconnected network?)", budget)
				}
				budget++
			}
			remaining = remaining[:k]
		}
		// Advance: drop edges that reached their destination.
		k := 0
		for _, ei := range active {
			if pos[ei] != pairs[ei][1] {
				active[k] = ei
				k++
			}
		}
		active = active[:k]
	}
	if !opt.NoRefine {
		refineRoutes(net, pairs, routes, linkUse, scr)
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

// refineRoutes levels link load: each route is removed and replaced by
// the shortest path minimizing (max link load, total link load) over the
// shortest-path DAG, repeating until a sweep makes no change.
func refineRoutes(net *topology.Network, pairs [][2]int, routes []topology.Route, linkUse []int, scr *graph.Scratch) {
	n := net.Processors()
	memo := congMemo{
		stamp: scr.Ints(n),
		max:   scr.Ints(n),
		sum:   scr.Ints(n),
		hop:   scr.Ints(n),
		set:   scr.Bools(n),
	}
	maxLen := 0
	for _, r := range routes {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	buf := scr.IntsCap(maxLen)
	for sweep := 0; sweep < 4; sweep++ {
		changed := false
		for i, p := range pairs {
			if p[0] == p[1] {
				continue
			}
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
}

// solve computes the DP value at v over the shortest-path DAG toward
// dst. The recursion terminates because Distance strictly decreases.
func (m *congMemo) solve(net *topology.Network, linkUse []int, dst, v int) (max, sum int, set bool) {
	if m.stamp[v] == m.epoch {
		return m.max[v], m.sum[v], m.set[v]
	}
	dv := net.Distance(v, dst)
	curMax, curSum, curHop := 0, 0, 0
	curSet := false
	nbrs := net.Neighbors(v)
	lids := net.NeighborLinks(v)
	for ni, u := range nbrs {
		if net.Distance(u, dst) != dv-1 {
			continue
		}
		id := lids[ni]
		sMax, sSum, _ := m.solve(net, linkUse, dst, u)
		if linkUse[id] > sMax {
			sMax = linkUse[id]
		}
		s := sSum + linkUse[id]
		if !curSet || sMax < curMax || (sMax == curMax && s < curSum) {
			curMax, curSum, curHop, curSet = sMax, s, id, true
		}
	}
	m.stamp[v] = m.epoch
	m.max[v], m.sum[v], m.hop[v], m.set[v] = curMax, curSum, curHop, curSet
	return curMax, curSum, curSet
}

// minCongestionRoute finds, among shortest src->dst paths, one minimizing
// first the maximum link load and then the total load, by dynamic
// programming over the shortest-path DAG. The walk is written into buf
// (a borrowed scratch slice); callers copy it out if they keep it.
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
		l := net.Link(m.hop[at])
		if at == l.A {
			at = l.B
		} else {
			at = l.A
		}
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
	for i, p := range pairs {
		at := p[0]
		for at != p[1] {
			hops := net.NextHops(at, p[1])
			if len(hops) == 0 {
				routes[i] = nil // unreachable on a degraded network
				break
			}
			h := hops[r.Intn(len(hops))]
			id, _ := net.LinkBetween(at, h)
			routes[i] = append(routes[i], id)
			at = h
		}
	}
	return routes
}

func firstShortest(net *topology.Network, src, dst int) topology.Route {
	var route topology.Route
	at := src
	for at != dst {
		hops := net.NextHops(at, dst)
		if len(hops) == 0 {
			return nil
		}
		id, _ := net.LinkBetween(at, hops[0])
		route = append(route, id)
		at = hops[0]
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
