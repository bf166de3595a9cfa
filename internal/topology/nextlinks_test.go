package topology_test

import (
	"fmt"
	"slices"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/topology"
)

// bfsTable is the referee's distance table: plain BFS over Neighbors,
// so it knows nothing of the closed forms (-1 marks unreachable).
func bfsTable(nw *topology.Network) [][]int {
	dist := make([][]int, nw.N)
	for s := range dist {
		d := make([]int, nw.N)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		for q := []int{s}; len(q) > 0; q = q[1:] {
			for _, u := range nw.Neighbors(q[0]) {
				if d[u] == -1 {
					d[u] = d[q[0]] + 1
					q = append(q, u)
				}
			}
		}
		dist[s] = d
	}
	return dist
}

// refNextLinks is the scan that NextLinks' closed forms replace: the
// links of cur's row, in NeighborLinks order, whose far end is one hop
// closer to dst.
func refNextLinks(nw *topology.Network, dist [][]int, cur, dst int) []int {
	var out []int
	if cur == dst || dist[cur][dst] < 0 {
		return out
	}
	lids := nw.NeighborLinks(cur)
	for i, u := range nw.Neighbors(cur) {
		if dist[u][dst] == dist[cur][dst]-1 {
			out = append(out, lids[i])
		}
	}
	return out
}

// checkNextLinks compares NextLinks, Distance and NextHops with the
// referee on every ordered pair of nw. NextLinks must append after the
// caller's prefix and leave it intact.
func checkNextLinks(t *testing.T, nw *topology.Network) {
	t.Helper()
	dist := bfsTable(nw)
	prefix := []int{-7}
	for cur := 0; cur < nw.N; cur++ {
		for dst := 0; dst < nw.N; dst++ {
			if got, want := nw.Distance(cur, dst), dist[cur][dst]; got != want {
				t.Fatalf("%s: Distance(%d,%d) = %d, BFS says %d", nw.Name, cur, dst, got, want)
			}
			want := refNextLinks(nw, dist, cur, dst)
			if bound := nw.MaxNextLinks(); bound > 0 && len(want) > bound {
				t.Fatalf("%s: %d next links from %d to %d, MaxNextLinks says at most %d", nw.Name, len(want), cur, dst, bound)
			}
			got := nw.NextLinks(cur, dst, prefix)
			if got[0] != -7 || !slices.Equal(got[1:], want) {
				t.Fatalf("%s: NextLinks(%d,%d) = %v after the prefix [-7], want %v", nw.Name, cur, dst, got, want)
			}
			hops := nw.NextHops(cur, dst)
			if len(hops) != len(want) {
				t.Fatalf("%s: NextHops(%d,%d) = %v for next links %v", nw.Name, cur, dst, hops, want)
			}
			for i, id := range want {
				if hops[i] != nw.Link(id).Other(cur) {
					t.Fatalf("%s: NextHops(%d,%d) = %v for next links %v", nw.Name, cur, dst, hops, want)
				}
			}
		}
	}
}

// nextLinksNets lists every family and size gen.Network builds, the
// other constructible families, hierarchies with fanout-2 levels up to
// the 8-level cap, tori of every extent 1..5 and single-row and
// single-column meshes.
func nextLinksNets() []*topology.Network {
	var nets []*topology.Network
	for n := 3; n <= 16; n++ {
		nets = append(nets, topology.Ring(n))
	}
	for n := 1; n <= 16; n++ {
		nets = append(nets, topology.Linear(n))
	}
	for r := 1; r <= 5; r++ {
		for c := 1; c <= 5; c++ {
			nets = append(nets, topology.Mesh(r, c), topology.Torus(r, c))
		}
	}
	for d := 0; d <= 6; d++ {
		nets = append(nets, topology.Hypercube(d))
	}
	for n := 1; n <= 10; n++ {
		nets = append(nets, topology.Complete(n))
	}
	for n := 2; n <= 11; n++ {
		nets = append(nets, topology.Star(n))
	}
	nets = append(nets,
		topology.CompleteBinaryTree(2), topology.CompleteBinaryTree(3),
		topology.BinomialTree(4), topology.Butterfly(3), topology.CubeConnectedCycles(3))
	for _, f := range [][]int{
		{2, 2}, {2, 3}, {3, 2}, {2, 3, 4}, {3, 2, 5}, {4, 2, 2}, {2, 2, 2, 2, 2},
		{2, 2, 2, 2, 2, 2, 2, 2}, {3, 3, 3, 2, 2, 2}, {4, 4, 4, 8},
	} {
		nets = append(nets, topology.Hierarchy(f...))
	}
	return nets
}

// TestNextLinksMatchesScan is FuzzNextLinks' deterministic twin: every
// network of nextLinksNets, pristine and under two seeded gen.Faults
// masks, on every ordered pair.
func TestNextLinksMatchesScan(t *testing.T) {
	for i, nw := range nextLinksNets() {
		t.Run(fmt.Sprintf("%s#%d", nw.Name, i), func(t *testing.T) {
			checkNextLinks(t, nw)
			if testing.Short() && nw.N > 64 {
				return
			}
			for seed := int64(1); seed <= 2; seed++ {
				if nw.N < 3 || nw.NumLinks() == 0 {
					break
				}
				degraded, _, _ := gen.Faults(gen.Rand(seed+int64(i)), nw, 2, 3)
				checkNextLinks(t, degraded)
			}
		})
	}
}

// fuzzNetwork decodes a small network from fuzzer bytes: a family, two
// size parameters and, for hierarchies, fanouts from the parameters'
// bits (2..8 levels, at most 256 processors).
func fuzzNetwork(kind, p1, p2 uint8) *topology.Network {
	a, b := int(p1), int(p2)
	switch kind % 12 {
	case 0:
		return topology.Ring(3 + a%14)
	case 1:
		return topology.Linear(1 + a%16)
	case 2:
		return topology.Mesh(1+a%6, 1+b%6)
	case 3:
		return topology.Torus(1+a%6, 1+b%6)
	case 4:
		return topology.Hypercube(a % 7)
	case 5:
		return topology.Complete(1 + a%10)
	case 6:
		return topology.Star(2 + a%10)
	case 7:
		return topology.CompleteBinaryTree(a % 4)
	case 8:
		return topology.BinomialTree(a % 5)
	case 9:
		return topology.Butterfly(1 + a%3)
	case 10:
		return topology.CubeConnectedCycles(3)
	}
	levels := 2 + a%7
	fanouts := make([]int, levels)
	for i := range fanouts {
		fanouts[i] = 2
		if levels <= 4 {
			fanouts[i] += b >> (2 * i) & 3
		}
	}
	return topology.Hierarchy(fanouts...)
}

// FuzzNextLinks checks NextLinks against the Distance scan over the
// adjacency rows on fuzzer-chosen networks of every family, pristine or
// under a seeded gen.Faults mask: the same link ids in the same order
// for every ordered pair.
func FuzzNextLinks(f *testing.F) {
	for kind := uint8(0); kind < 12; kind++ {
		f.Add(kind, uint8(3), uint8(4), int64(1), uint8(0))
		f.Add(kind, uint8(4), uint8(5), int64(2), uint8(7))
	}
	f.Add(uint8(11), uint8(6), uint8(0), int64(3), uint8(0))
	f.Add(uint8(3), uint8(3), uint8(1), int64(4), uint8(5))
	f.Fuzz(func(t *testing.T, kind, p1, p2 uint8, seed int64, faults uint8) {
		nw := fuzzNetwork(kind, p1, p2)
		if faults%4 != 0 && nw.N >= 3 && nw.NumLinks() > 0 {
			nw, _, _ = gen.Faults(gen.Rand(seed), nw, int(faults%4), int(faults/4%4))
		}
		checkNextLinks(t, nw)
	})
}
