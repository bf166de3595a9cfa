package topology

import (
	"slices"
	"sync"
	"testing"
)

func TestMaskedBasics(t *testing.T) {
	net := Hypercube(3)
	m, err := net.Masked([]int{5}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded() || net.Degraded() {
		t.Fatal("Degraded flags wrong; masking must not touch the base network")
	}
	if m.Alive(5) || !m.Alive(4) {
		t.Error("Alive wrong for failed/live processor")
	}
	if m.NumLive() != 7 {
		t.Errorf("NumLive = %d, want 7", m.NumLive())
	}
	if m.LinkAlive(0) {
		t.Error("failed link 0 still alive")
	}
	// Links incident to the failed processor are dead too.
	for _, l := range m.Links() {
		if (l.A == 5 || l.B == 5) && m.LinkAlive(l.ID) {
			t.Errorf("link %d incident to failed processor 5 still alive", l.ID)
		}
	}
	// The id space is unchanged.
	if m.N != net.N || m.NumLinks() != net.NumLinks() {
		t.Errorf("masked view changed id space: N=%d links=%d", m.N, m.NumLinks())
	}
	// Neighbors of the failed processor vanish.
	if len(m.Neighbors(5)) != 0 || m.Degree(5) != 0 {
		t.Errorf("failed processor still has neighbors %v", m.Neighbors(5))
	}
	for _, u := range m.Neighbors(4) {
		if u == 5 {
			t.Error("live processor 4 still neighbors failed processor 5")
		}
	}
}

func TestMaskedDistanceBFS(t *testing.T) {
	// ring(6) with processor 0 failed: 1 and 5 are 4 hops apart the long
	// way around, not 2 through the dead node.
	m, err := Ring(6).Masked([]int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Distance(1, 5); d != 4 {
		t.Errorf("Distance(1,5) on degraded ring = %d, want 4", d)
	}
	// Failing a second processor disconnects the live path.
	m2, err := m.Masked([]int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := m2.Distance(1, 5); d != -1 {
		t.Errorf("Distance(1,5) with 0 and 3 failed = %d, want -1", d)
	}
	if hops := m2.NextHops(1, 5); hops != nil {
		t.Errorf("NextHops to unreachable destination = %v, want nil", hops)
	}
	// The union of failures is reported.
	if got := m2.FailedProcessors(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("FailedProcessors = %v, want [0 3]", got)
	}
}

func TestMaskedRouteEndpoints(t *testing.T) {
	net := Ring(5)
	id, ok := net.LinkBetween(1, 2)
	if !ok {
		t.Fatal("ring(5) missing link 1-2")
	}
	m, err := net.Masked(nil, []int{id})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.LinkBetween(1, 2); ok {
		t.Error("LinkBetween reports a failed link")
	}
	if _, ok := m.RouteEndpoints(1, Route{id}); ok {
		t.Error("RouteEndpoints accepted a route over a failed link")
	}
	// The base network still accepts the route.
	if _, ok := net.RouteEndpoints(1, Route{id}); !ok {
		t.Error("base network rejected a valid route")
	}
}

func TestMaskedRejectsOutOfRange(t *testing.T) {
	net := Ring(4)
	if _, err := net.Masked([]int{9}, nil); err == nil {
		t.Error("out-of-range processor accepted")
	}
	if _, err := net.Masked(nil, []int{99}); err == nil {
		t.Error("out-of-range link accepted")
	}
}

// TestConcurrentFirstDistance races the first Distance calls on a
// degraded view, whose lazily built all-pairs table used to be published
// before its rows were filled. Run under -race (`make race`); every
// goroutine must read the same distances as a view queried alone.
func TestConcurrentFirstDistance(t *testing.T) {
	view := func() *Network {
		m, err := Hierarchy(2, 3, 4).Masked([]int{5}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref, shared := view(), view()
	want := make([]int, 0, ref.N*ref.N)
	for a := 0; a < ref.N; a++ {
		for b := 0; b < ref.N; b++ {
			want = append(want, ref.Distance(a, b))
		}
	}
	const workers = 8
	got := make([][]int, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for a := 0; a < shared.N; a++ {
				for b := 0; b < shared.N; b++ {
					got[w] = append(got[w], shared.Distance(a, b))
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for w := range got {
		if !slices.Equal(got[w], want) {
			t.Fatalf("goroutine %d read distances that differ from a single-threaded view", w)
		}
	}
}
