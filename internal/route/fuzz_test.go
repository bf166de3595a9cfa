package route_test

import (
	"reflect"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/route"
	"oregami/internal/topology"
)

// FuzzMMRouteDifferential decodes fuzzer bytes into a network, a pair
// multiset and the two MM-Route options, and requires MMRoute's routes
// and Stats to equal refMMRoute's. kind picks a seeded gen.Network,
// hier:4,4,4,8 or a gen.Faults view of a seeded network; opts bit 0 is
// UseMaximum and bit 1 NoRefine. Every 5 bytes of data are one pair:
// two 16-bit indexes into the live processors and a repeat count of
// 1..16, so short inputs reach the budget raises that duplicated pairs
// force. Registered in `make fuzz`.
func FuzzMMRouteDifferential(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0), []byte{0, 0, 0, 5, 15, 0, 3, 0, 9, 3, 0, 2, 0, 7, 0})
	f.Add(int64(2), byte(1), byte(0), []byte{0, 0, 1, 255, 15, 0, 64, 0, 128, 9, 1, 7, 0, 9, 4, 0, 3, 0, 3, 0})
	f.Add(int64(3), byte(1), byte(3), []byte{0, 17, 1, 200, 12, 1, 3, 0, 40, 15})
	f.Add(int64(4), byte(2), byte(2), []byte{0, 1, 0, 6, 8, 0, 4, 0, 2, 14, 0, 5, 0, 1, 3})
	f.Add(int64(5), byte(2), byte(1), []byte{0, 0, 0, 7, 15, 0, 2, 0, 5, 10})
	f.Fuzz(func(t *testing.T, seed int64, kind, opts byte, data []byte) {
		r := gen.Rand(seed)
		var net *topology.Network
		switch kind % 3 {
		case 0:
			net = gen.Network(r)
		case 1:
			net = topology.Hierarchy(4, 4, 4, 8)
		default:
			net, _, _ = gen.Faults(r, gen.Network(r), 3, 4)
		}
		var live []int
		for v := 0; v < net.N; v++ {
			if net.Alive(v) {
				live = append(live, v)
			}
		}
		var pairs [][2]int
		for i := 0; i+5 <= len(data) && len(pairs) < 1000; i += 5 {
			src := live[(int(data[i])<<8|int(data[i+1]))%len(live)]
			dst := live[(int(data[i+2])<<8|int(data[i+3]))%len(live)]
			for c := 1 + int(data[i+4])%16; c > 0; c-- {
				pairs = append(pairs, [2]int{src, dst})
			}
		}
		opt := route.Options{UseMaximum: opts&1 != 0, NoRefine: opts&2 != 0}
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
	})
}
