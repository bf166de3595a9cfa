package route_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/matching"
	"oregami/internal/route"
	"oregami/internal/topology"
)

// TestMMRouteAgainstLowerBounds drives MM-Route over random topologies
// and random endpoint multisets, then checks it against independently
// computed ground truth: every route is a shortest walk between its
// endpoints, the reported statistics match a recomputation from the
// routes themselves, and the achieved contention respects the
// information-theoretic floors (total hops spread over all links, and
// the bottleneck at each endpoint's ports).
func TestMMRouteAgainstLowerBounds(t *testing.T) {
	gen.ForEachSeed(t, 60, func(t *testing.T, seed int64, r *rand.Rand) {
		net := gen.Network(r)
		numPairs := 1 + r.Intn(2*net.NumLinks())
		pairs := make([][2]int, numPairs)
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(net.N), r.Intn(net.N)}
		}
		opt := route.Options{UseMaximum: r.Intn(2) == 1}
		routes, stats, err := route.MMRoute(net, pairs, opt)
		if err != nil {
			t.Fatalf("MMRoute on %s with %d pairs: %v", net.Name, numPairs, err)
		}
		if len(routes) != len(pairs) {
			t.Fatalf("got %d routes for %d pairs", len(routes), len(pairs))
		}

		totalHops := 0
		perLink := make([]int, net.NumLinks())
		for i, rt := range routes {
			src, dst := pairs[i][0], pairs[i][1]
			if src == dst {
				if len(rt) != 0 {
					t.Fatalf("pair %d is intraprocessor but has route %v", i, rt)
				}
				continue
			}
			hops, ok := net.RouteEndpoints(src, rt)
			if !ok || hops[len(hops)-1] != dst {
				t.Fatalf("pair %d (%d->%d): route %v is not a walk to the destination", i, src, dst, rt)
			}
			if want := net.Distance(src, dst); len(rt) != want {
				t.Fatalf("pair %d (%d->%d): route length %d, shortest distance %d", i, src, dst, len(rt), want)
			}
			totalHops += len(rt)
			for _, link := range rt {
				perLink[link]++
			}
		}

		if totalHops != stats.TotalHops {
			t.Fatalf("stats.TotalHops=%d, recomputed %d", stats.TotalHops, totalHops)
		}
		maxCon := 0
		for _, c := range perLink {
			if c > maxCon {
				maxCon = c
			}
		}
		if maxCon != stats.MaxContention {
			t.Fatalf("stats.MaxContention=%d, recomputed %d", stats.MaxContention, maxCon)
		}
		if helper := route.MaxContention(net, routes); helper != maxCon {
			t.Fatalf("route.MaxContention=%d, recomputed %d", helper, maxCon)
		}

		// Floor 1: totalHops traversals must share NumLinks links.
		if floor := (totalHops + net.NumLinks() - 1) / net.NumLinks(); totalHops > 0 && maxCon < floor {
			t.Fatalf("contention %d below aggregate floor %d (totalHops=%d, links=%d)",
				maxCon, floor, totalHops, net.NumLinks())
		}
		// Floor 2: routes leaving or entering a processor all use its
		// incident links.
		out := make([]int, net.N)
		in := make([]int, net.N)
		for i := range pairs {
			if pairs[i][0] != pairs[i][1] {
				out[pairs[i][0]]++
				in[pairs[i][1]]++
			}
		}
		for p := 0; p < net.N; p++ {
			need := out[p]
			if in[p] > need {
				need = in[p]
			}
			if need == 0 {
				continue
			}
			if floor := (need + net.Degree(p) - 1) / net.Degree(p); maxCon < floor {
				t.Fatalf("contention %d below port floor %d at proc %d (out=%d in=%d degree=%d)",
					maxCon, floor, p, out[p], in[p], net.Degree(p))
			}
		}
	})
}

// TestMMRouteMatchesBaselinesOnHypercube compares MM-Route's per-route
// lengths with the deterministic e-cube baseline: both must realize
// exactly the Hamming distance on a hypercube.
func TestMMRouteMatchesBaselinesOnHypercube(t *testing.T) {
	gen.ForEachSeed(t, 20, func(t *testing.T, seed int64, r *rand.Rand) {
		net := topology.Hypercube(2 + r.Intn(3))
		pairs := make([][2]int, 1+r.Intn(12))
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(net.N), r.Intn(net.N)}
		}
		routes, _, err := route.MMRoute(net, pairs, route.Options{})
		if err != nil {
			t.Fatalf("MMRoute: %v", err)
		}
		ecube := route.ECube(net, pairs)
		for i := range pairs {
			if len(routes[i]) != len(ecube[i]) {
				t.Fatalf("pair %d (%d->%d): MM-Route length %d, e-cube length %d",
					i, pairs[i][0], pairs[i][1], len(routes[i]), len(ecube[i]))
			}
		}
	})
}

// TestMMRouteMatchesReferee pins MMRoute to refMMRoute, the
// straightforward form that rebuilds every remaining edge's shortest
// next-hop set in every matching round. Routes and Stats must be
// exactly equal for every combination of UseMaximum and NoRefine, over
// random topologies, the 512-PE hierarchy and fault-degraded views,
// with pair multisets duplicated heavily enough that the budget is
// raised many times and hop rounds run 50 or more matching rounds.
func TestMMRouteMatchesReferee(t *testing.T) {
	maxRounds := 0
	gen.ForEachSeed(t, 45, func(t *testing.T, seed int64, r *rand.Rand) {
		var net *topology.Network
		switch seed % 3 {
		case 0:
			net = gen.Network(r)
		case 1:
			net = topology.Hierarchy(4, 4, 4, 8)
		default:
			net, _, _ = gen.Faults(r, gen.Network(r), 3, 4)
		}
		pairs := dupPairs(r, net)
		for _, opt := range []route.Options{
			{}, {UseMaximum: true}, {NoRefine: true}, {UseMaximum: true, NoRefine: true},
		} {
			got, gotSt, err := route.MMRoute(net, pairs, opt)
			if err != nil {
				t.Fatalf("MMRoute %+v on %s: %v", opt, net.Name, err)
			}
			want, wantSt, err := refMMRoute(net, pairs, opt)
			if err != nil {
				t.Fatalf("refMMRoute %+v on %s: %v", opt, net.Name, err)
			}
			if gotSt != wantSt {
				t.Fatalf("%+v on %s, %d pairs: stats %+v, referee %+v", opt, net.Name, len(pairs), gotSt, wantSt)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%+v on %s: pair %d %v: route %v, referee %v", opt, net.Name, i, pairs[i], got[i], want[i])
					}
				}
			}
			if gotSt.Rounds > maxRounds {
				maxRounds = gotSt.Rounds
			}
		}
	})
	t.Logf("max matching rounds in one phase: %d", maxRounds)
	if maxRounds < 50 {
		t.Fatalf("no case reached 50 matching rounds (max %d): the budget-raising path is untested", maxRounds)
	}
}

// dupPairs draws a pair multiset over the live processors of net: a few
// distinct (src, dst) pairs, each repeated many times, plus scattered
// random pairs and some src == dst pairs.
func dupPairs(r *rand.Rand, net *topology.Network) [][2]int {
	var live []int
	for v := 0; v < net.N; v++ {
		if net.Alive(v) {
			live = append(live, v)
		}
	}
	pick := func() int { return live[r.Intn(len(live))] }
	var pairs [][2]int
	for k := 1 + r.Intn(4); k > 0; k-- {
		p := [2]int{pick(), pick()}
		for c := 10 + r.Intn(60); c > 0; c-- {
			pairs = append(pairs, p)
		}
	}
	for c := r.Intn(min(2*net.NumLinks(), 300)); c > 0; c-- {
		pairs = append(pairs, [2]int{pick(), pick()})
	}
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// refMMRoute is the referee for MMRoute: the same algorithm with each
// remaining edge's candidate links recomputed from Distance in every
// matching round, and matchY cleared in full per greedy round.
func refMMRoute(net *topology.Network, pairs [][2]int, opt route.Options) ([]topology.Route, route.Stats, error) {
	routes := make([]topology.Route, len(pairs))
	scr := graph.GetScratch()
	defer scr.Release()

	pos := make([]int, len(pairs))
	var active []int
	for i, p := range pairs {
		pos[i] = p[0]
		if p[0] != p[1] {
			if net.Distance(p[0], p[1]) < 0 {
				return nil, route.Stats{}, fmt.Errorf("route: no live path from processor %d to %d", p[0], p[1])
			}
			active = append(active, i)
		}
	}
	var stats route.Stats
	linkUse := scr.Ints(net.NumLinks())
	maxDeg := 0
	for v := 0; v < net.Processors(); v++ {
		if d := net.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	candOff := make([]int, len(pairs)+1)
	order := make([]int, len(pairs))
	counts := make([]int, maxDeg+2)
	matchX := make([]int, len(pairs))
	matchY := make([]int, net.NumLinks())
	var remaining, candBuf []int

	budget := 1
	for len(active) > 0 {
		remaining = append(remaining[:0], active...)
		for len(remaining) > 0 {
			stats.Rounds++
			nRem := len(remaining)
			candBuf = candBuf[:0]
			for xi, ei := range remaining {
				candOff[xi] = len(candBuf)
				dst := pairs[ei][1]
				if base := net.Distance(pos[ei], dst); base >= 0 {
					lids := net.NeighborLinks(pos[ei])
					for hi, h := range net.Neighbors(pos[ei]) {
						if net.Distance(h, dst) != base-1 {
							continue
						}
						if id := lids[hi]; linkUse[id] < budget {
							candBuf = append(candBuf, id)
						}
					}
				}
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
				for i := range mX {
					mX[i] = -1
				}
				for i := range matchY {
					matchY[i] = -1
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
				if budget > net.NumLinks()*len(pairs)+1 {
					return nil, stats, fmt.Errorf("route: no progress with budget %d", budget)
				}
				budget++
			}
			remaining = remaining[:k]
		}
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
		route.RefineRoutes(net, pairs, routes, linkUse, scr)
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
