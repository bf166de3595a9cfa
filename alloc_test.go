package oregami

// Allocation-budget gates for the hot paths flattened onto the CSR core
// (ROADMAP item 1). Each gate pins a testing.AllocsPerRun ceiling on one
// pipeline stage over the standard parallel-bench workload (160 tasks,
// 8 phases, hypercube(4)); regressions that reintroduce per-call maps or
// per-iteration slices trip the gate long before they show up in a
// wall-clock benchmark. Ceilings are ~2x the measured value on a warm
// run — loose enough to absorb allocator noise, tight enough that a
// reintroduced O(edges) or O(rounds) allocation pattern fails.
//
// The gates are skipped under the race detector (instrumentation
// allocates) and in -short mode; `make check` runs them in a dedicated
// non-race pass.

import (
	"testing"

	"oregami/internal/check"
	"oregami/internal/contract"
	"oregami/internal/core"
	"oregami/internal/gen"
	"oregami/internal/larcs"
	"oregami/internal/metrics"
	"oregami/internal/multilevel"
	"oregami/internal/route"
	"oregami/internal/topology"
)

// allocWorkload is the BenchmarkParallelPipeline workload: large enough
// that per-edge or per-round allocation patterns dominate the count.
func allocWorkload(t testing.TB) (*larcs.Compiled, *topology.Network) {
	g := gen.TaskGraph(gen.Rand(7), gen.GraphSize{Tasks: 160, Phases: 8, Density: 0.15, MaxWeight: 8})
	return &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}, topology.Hypercube(4)
}

// gate runs fn under testing.AllocsPerRun and fails if the average
// allocation count exceeds ceiling.
func gate(t *testing.T, name string, ceiling float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("allocation gates skipped in -short mode")
	}
	got := testing.AllocsPerRun(10, fn)
	t.Logf("%s: %.0f allocs/op (ceiling %.0f)", name, got, ceiling)
	if got > ceiling {
		t.Errorf("%s allocates %.0f times per op, budget is %.0f — a map or per-call buffer came back; see internal/graph/scratch.go",
			name, got, ceiling)
	}
}

func TestAllocBudgetGraphBuild(t *testing.T) {
	gate(t, "graph build + CSR warm", 700, func() {
		g := gen.TaskGraph(gen.Rand(7), gen.GraphSize{Tasks: 160, Phases: 8, Density: 0.15, MaxWeight: 8})
		g.WarmCSR()
	})
}

func TestAllocBudgetCollapsedEntries(t *testing.T) {
	c, _ := allocWorkload(t)
	c.Graph.WarmCSR()
	gate(t, "CollapsedEntries(1)", 8, func() {
		if len(c.Graph.CollapsedEntries(1)) == 0 {
			t.Fatal("no entries")
		}
	})
}

func TestAllocBudgetContract(t *testing.T) {
	c, net := allocWorkload(t)
	c.Graph.WarmCSR()
	opt := contract.Options{Processors: net.N, Parallelism: 1}
	gate(t, "MWMContract", 900, func() {
		if _, err := contract.MWMContract(c.Graph, opt); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetRoute(t *testing.T) {
	_, net := allocWorkload(t)
	net.WarmDistances()
	r := gen.Rand(11)
	pairs := make([][2]int, 96)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(net.N), r.Intn(net.N)}
	}
	gate(t, "MMRoute", 48, func() {
		if _, _, err := route.MMRoute(net, pairs, route.Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetDistance holds Distance to zero allocations: it sits
// on NN-Embed's and MM-Route's innermost loops, so one allocation per
// call multiplies into millions per request. Every analytic family is
// covered, hier included, plus a warmed degraded view (table lookups).
func TestAllocBudgetDistance(t *testing.T) {
	degraded, err := topology.Hierarchy(2, 3, 4).Masked([]int{5}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	degraded.WarmDistances()
	for _, net := range []*topology.Network{
		topology.Mesh(4, 5), topology.Torus(4, 5), topology.Hypercube(5),
		topology.Complete(9), topology.Star(9), topology.Ring(11),
		topology.Linear(11), topology.Hierarchy(4, 4, 4, 8),
		topology.Hierarchy(3, 5, 3), degraded,
	} {
		gate(t, net.Name+" Distance", 0, func() {
			sum := 0
			for a := 0; a < net.N; a += 3 {
				for b := 0; b < net.N; b += 7 {
					sum += net.Distance(a, b)
				}
			}
			if sum == 0 {
				t.Fatal("all distances zero")
			}
		})
	}
}

// TestAllocBudgetRouteHier gates MM-Route on the 512-PE hierarchy the
// multilevel benchmark maps onto; the hypercube(4) gate above cannot
// see an allocation in the hierarchy distance. A warm run makes 2
// allocations (the route slice and the backing all routes share); a
// per-Distance allocation would make millions.
func TestAllocBudgetRouteHier(t *testing.T) {
	net := topology.Hierarchy(4, 4, 4, 8)
	r := gen.Rand(13)
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(net.N), r.Intn(net.N)}
	}
	gate(t, "MMRoute hier(4x4x4x8)", 4, func() {
		if _, _, err := route.MMRoute(net, pairs, route.Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetMetrics(t *testing.T) {
	c, net := allocWorkload(t)
	res, err := core.Map(core.Request{Compiled: c, Net: net, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "metrics.ComputeN", 20, func() {
		if _, err := metrics.ComputeN(res.Mapping, 1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetFingerprint gates check.Fingerprint, which runs on
// every served miss and every live cache hit, on a routed 8-phase
// mapping. A warm run makes 2 allocations (the sorted phase names and
// the one pre-sized output buffer); the fmt-based writer it replaced
// allocated once per route.
func TestAllocBudgetFingerprint(t *testing.T) {
	c, net := allocWorkload(t)
	res, err := core.Map(core.Request{Compiled: c, Net: net, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping.Routes) < 2 {
		t.Fatalf("mapping has %d routed phases, want a multi-phase mapping", len(res.Mapping.Routes))
	}
	gate(t, "check.Fingerprint", 4, func() {
		if check.Fingerprint(res.Mapping) == "" {
			t.Fatal("empty fingerprint")
		}
	})
}

func TestAllocBudgetMultilevelContract(t *testing.T) {
	g := gen.TaskGraph(gen.Rand(7), gen.GraphSize{Tasks: 2000, Phases: 4, Density: 0.01, MaxWeight: 8})
	g.WarmCSR()
	opt := multilevel.Options{Processors: 64, Parallelism: 1}
	if _, _, err := multilevel.Contract(g, opt); err != nil {
		t.Fatal(err)
	}
	// Coarsening allocates a fixed handful of slices per level (CSR
	// quadruple + cmap + members), the level count is logarithmic in the
	// task count, and the coarsest-level MWMContract runs on a
	// fixed-size (<= max(64, 2P)-vertex) graph — so the budget stays
	// flat as fine graphs grow. A per-fine-vertex or per-edge
	// allocation pattern would blow through it immediately at 2000
	// tasks.
	gate(t, "multilevel.Contract", 5500, func() {
		if _, _, err := multilevel.Contract(g, opt); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetPipeline(t *testing.T) {
	c, net := allocWorkload(t)
	if _, err := core.Map(core.Request{Compiled: c, Net: net, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	// The committed BENCH_parallel.json baseline was ~27.7M allocs/op
	// before the CSR core; the gate holds the full pipeline to under
	// 1/1000th of that.
	gate(t, "core.Map pipeline", 9000, func() {
		if _, err := core.Map(core.Request{Compiled: c, Net: net, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
}
