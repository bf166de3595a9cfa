package route_test

import (
	"reflect"
	"testing"

	"oregami/internal/route"
	"oregami/internal/topology"
)

// TestMMRouteQueueInterleaving pins the one place where a choice edge
// (several shortest next hops) and a forced edge (one) contest a link
// within a matching round. On the 2x3 mesh
//
//	0 - 1 - 2
//	|   |   |
//	3 - 4 - 5
//
// 2->3 and 0->4 both reach processor 1 in the first hop round, over
// links 1-2 and 0-1, which then sit at the budget. In the second hop
// round 0->4 is forced onto link 1-4 and heads its queue, while 2->3,
// whose other next hop 1-0 is saturated, is cut down to link 1-4 alone.
// The greedy order is (candidate count, index), so the edge with the
// smaller index takes the link: 2->3 when it is pair 0, and 0->4 when
// the order is swapped. The loser waits for a budget raise and then
// routes through 1-0. Random seeds rarely reach this path, so the case
// is fixed; each instance must equal refMMRoute with and without
// refinement.
func TestMMRouteQueueInterleaving(t *testing.T) {
	net := topology.Mesh(2, 3)
	link := func(a, b int) int {
		id, ok := net.LinkBetween(a, b)
		if !ok {
			t.Fatalf("mesh has no link %d-%d", a, b)
		}
		return id
	}
	for _, tc := range []struct {
		name   string
		pairs  [][2]int
		choice int // index of 2->3
		via    int // 2->3's second hop
	}{
		{"choice-edge-first", [][2]int{{2, 3}, {0, 4}}, 0, link(1, 4)},
		{"queue-head-first", [][2]int{{0, 4}, {2, 3}}, 1, link(1, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, opt := range []route.Options{{}, {NoRefine: true}} {
				got, gotSt, err := route.MMRoute(net, tc.pairs, opt)
				if err != nil {
					t.Fatalf("MMRoute %+v: %v", opt, err)
				}
				want, wantSt, err := refMMRoute(net, tc.pairs, opt)
				if err != nil {
					t.Fatalf("refMMRoute %+v: %v", opt, err)
				}
				if gotSt != wantSt || !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: routes %v stats %+v, referee %v %+v", opt, got, gotSt, want, wantSt)
				}
				if r := got[tc.choice]; opt.NoRefine && r[1] != tc.via {
					t.Fatalf("%+v: 2->3 routed %v, want second hop %d", opt, r, tc.via)
				}
			}
		})
	}
}
