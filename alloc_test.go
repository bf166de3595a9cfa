package oregami

// Allocation-budget gates for the hot paths flattened onto the CSR core.
// Each gate pins a testing.AllocsPerRun ceiling on one pipeline stage
// over one generated workload (160 tasks, 8 phases, hypercube(4));
// regressions that reintroduce per-call maps or per-iteration slices
// trip the gate long before they show up in a wall-clock benchmark.
// Stage ceilings are ~2x the measured value on a warm run — loose
// enough to absorb allocator noise, tight enough that a reintroduced
// O(edges) or O(rounds) allocation pattern fails. The whole-pipeline
// ceilings are tighter (10% over a recorded count), because the
// pipeline's count is large and stable. The route, contract and
// pipeline gates also hold bytes/op to 10% over a recorded value
// (bytesGate): no stage pools its buffers, so the bytes are what a
// request pays.
//
// The gates are skipped under the race detector (instrumentation
// allocates) and in -short mode; `make check` runs them in a dedicated
// non-race pass.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"oregami/internal/canned"
	"oregami/internal/check"
	"oregami/internal/contract"
	"oregami/internal/core"
	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/larcs"
	"oregami/internal/mapping"
	"oregami/internal/metrics"
	"oregami/internal/multilevel"
	"oregami/internal/route"
	"oregami/internal/serve"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// allocWorkload is also BenchmarkParallelPipeline's workload: large
// enough that per-edge or per-round allocation patterns dominate the
// count.
func allocWorkload(t testing.TB) (*larcs.Compiled, *topology.Network) {
	g := gen.TaskGraph(gen.Rand(7), gen.GraphSize{Tasks: 160, Phases: 8, Density: 0.15, MaxWeight: 8})
	return &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}, topology.Hypercube(4)
}

// skipAllocGate skips an allocation gate under the race detector and in
// -short mode.
func skipAllocGate(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("allocation gates skipped in -short mode")
	}
}

// gate runs fn under testing.AllocsPerRun and fails if the average
// allocation count exceeds ceiling.
func gate(t *testing.T, name string, ceiling float64, fn func()) {
	t.Helper()
	skipAllocGate(t)
	got := testing.AllocsPerRun(10, fn)
	t.Logf("%s: %.0f allocs/op (ceiling %.0f)", name, got, ceiling)
	if got > ceiling {
		t.Errorf("%s allocates %.0f times per op, budget is %.0f — a map or a per-round buffer came back; see DESIGN.md §6",
			name, got, ceiling)
	}
}

// bytesGate is gate's companion for allocated bytes: it averages the
// runtime.MemStats.TotalAlloc delta over 10 runs of fn after one
// warm-up call, the run count and GOMAXPROCS 1 of testing.AllocsPerRun,
// and fails if the mean exceeds ceiling.
func bytesGate(t *testing.T, name string, ceiling float64, fn func()) {
	t.Helper()
	skipAllocGate(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%s: %.0f bytes/op (ceiling %.0f)", name, got, ceiling)
	if got > ceiling {
		t.Errorf("%s allocates %.0f bytes per op, budget is %.0f", name, got, ceiling)
	}
}

func TestAllocBudgetGraphBuild(t *testing.T) {
	gate(t, "graph build + CSR", 700, func() {
		g := gen.TaskGraph(gen.Rand(7), gen.GraphSize{Tasks: 160, Phases: 8, Density: 0.15, MaxWeight: 8})
		g.CSR()
	})
}

// TestAllocBudgetCSRJacobi gates the CSR build on the scale user's
// graph, jacobi n=100 (1e4 tasks, 39.6k edges), from a fresh copy each
// run: 19 allocs/op, the copy's slices, the collapse's three buffers
// and the CSR's own arrays, whatever the edge count. Ceiling ~2x.
func TestAllocBudgetCSRJacobi(t *testing.T) {
	w, err := workload.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Compile(map[string]int{"n": 100})
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "clone + CSR jacobi n=100", 40, func() {
		if c.Graph.Clone().CSR().NumPairs() == 0 {
			t.Fatal("no pairs")
		}
	})
}

func TestAllocBudgetCollapsedEntries(t *testing.T) {
	c, _ := allocWorkload(t)
	gate(t, "CollapsedEntries()", 8, func() {
		if len(c.Graph.CollapsedEntries()) == 0 {
			t.Fatal("no entries")
		}
	})
}

// TestAllocBudgetClusterGraph gates mapping.ClusterGraph, which every
// arbitrary, group and canned-fold request runs, on allocWorkload
// contracted by MWM-Contract: 54 allocs/op, a fixed few per phase
// (the fold's buffers and the phase's edges). The per-phase map, order
// slice and sort.Slice it replaced took 301. Ceiling ~2x.
func TestAllocBudgetClusterGraph(t *testing.T) {
	c, net := allocWorkload(t)
	part, err := contract.MWMContract(c.Graph, contract.Options{Processors: net.N, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := mapping.New(c.Graph, net)
	m.Part = part
	gate(t, "ClusterGraph", 108, func() {
		if m.ClusterGraph().NumTasks != net.N {
			t.Fatal("cluster count changed")
		}
	})
}

// TestAllocBudgetContract gates MWM-Contract on allocWorkload. Its
// bytes ceiling is 10% over the measured 3,362,843 bytes/op.
func TestAllocBudgetContract(t *testing.T) {
	c, net := allocWorkload(t)
	opt := contract.Options{Processors: net.N, Parallelism: 1}
	fn := func() {
		if _, err := contract.MWMContract(c.Graph, opt); err != nil {
			t.Fatal(err)
		}
	}
	gate(t, "MWMContract", 900, fn)
	bytesGate(t, "MWMContract", 3699127, fn)
}

// TestAllocBudgetRoute gates MM-Route on 96 random pairs on
// hypercube(4). Its bytes ceiling is 10% over the measured 21,680
// bytes/op: the call's two slabs, the routes and their backing.
func TestAllocBudgetRoute(t *testing.T) {
	_, net := allocWorkload(t)
	r := gen.Rand(11)
	pairs := make([][2]int, 96)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(net.N), r.Intn(net.N)}
	}
	fn := func() {
		if _, _, err := route.MMRoute(net, pairs, route.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	gate(t, "MMRoute", 48, fn)
	bytesGate(t, "MMRoute", 23848, fn)
}

// TestAllocBudgetDistance holds Distance to zero allocations: it sits
// on NN-Embed's and MM-Route's innermost loops, so one allocation per
// call multiplies into millions per request. Every analytic family is
// covered, hier included, plus a degraded view (table lookups; the
// table is built by AllocsPerRun's warm-up call).
func TestAllocBudgetDistance(t *testing.T) {
	degraded, err := topology.Hierarchy(2, 3, 4).Masked([]int{5}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
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

// hierRouteInput is the MM-Route input of the hierarchy gates: 1024
// random pairs on the 512-PE hierarchy the multilevel benchmark maps
// onto.
func hierRouteInput() (*topology.Network, [][2]int) {
	net := topology.Hierarchy(4, 4, 4, 8)
	r := gen.Rand(13)
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(net.N), r.Intn(net.N)}
	}
	return net, pairs
}

// TestAllocBudgetRouteHier gates MM-Route on the 512-PE hierarchy; the
// hypercube(4) gate above cannot see an allocation in the hierarchy
// distance. A run makes 4 allocations (the route slice, the backing
// all routes share, and the call's int and bool slabs); a
// per-Distance allocation would make millions. The bytes ceiling is 10%
// over the measured 299,141 bytes/op.
func TestAllocBudgetRouteHier(t *testing.T) {
	net, pairs := hierRouteInput()
	fn := func() {
		if _, _, err := route.MMRoute(net, pairs, route.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	gate(t, "MMRoute hier(4x4x4x8)", 4, fn)
	bytesGate(t, "MMRoute hier(4x4x4x8)", 329055, fn)
}

// TestAllocBudgetRouteCold holds TestAllocBudgetRouteHier's ceiling on
// a cold heap: each call runs after two runtime.GC()s, which empty any
// sync.Pool, and counts its runtime.MemStats.Mallocs delta. A call
// whose working buffers came from a pool pays for refilling it here (a
// pooled arena read 41). The minimum of 5 calls is gated, because a
// single reading can pick up one runtime allocation.
func TestAllocBudgetRouteCold(t *testing.T) {
	skipAllocGate(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net, pairs := hierRouteInput()
	const ceiling = 4
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := route.MMRoute(net, pairs, route.Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	t.Logf("cold MMRoute hier(4x4x4x8): %d allocs (min of 5, ceiling %d)", best, ceiling)
	if best > ceiling {
		t.Errorf("cold MMRoute hier(4x4x4x8) allocates %d times, budget is %d — a working buffer is pooled or allocated per round",
			best, ceiling)
	}
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

// TestAllocBudgetPipeline gates the full core.Map pipeline at each
// Parallelism budget. Each ceiling is 10% over the allocs/op that
// BenchmarkParallelPipeline last recorded for that worker count (4183,
// 4243 and 4224 for 1, 2 and 4 workers). Each bytes ceiling is 10% over
// the bytes/op measured at that worker count (9,470,230, 9,757,766 and
// 9,757,985).
func TestAllocBudgetPipeline(t *testing.T) {
	c, net := allocWorkload(t)
	for _, tc := range []struct {
		workers int
		ceiling float64
		bytes   float64
	}{
		{1, 4601, 10417253},
		{2, 4667, 10733543},
		{4, 4646, 10733784},
	} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			req := core.Request{Compiled: c, Net: net, Parallelism: tc.workers}
			fn := func() {
				if _, err := core.Map(req); err != nil {
					t.Fatal(err)
				}
			}
			gate(t, "core.Map pipeline", tc.ceiling, fn)
			bytesGate(t, "core.Map pipeline", tc.bytes, fn)
		})
	}
}

// TestAllocBudgetDetect gates canned family detection, which reads the
// cached CSR directly: the map-shaped adjacency it used to rebuild per
// call cost 377, 158 and 299 allocs/op on these three graphs. Ceilings
// are ~1.5x the CSR-walking counts (88, 16 and 120).
func TestAllocBudgetDetect(t *testing.T) {
	jacobi, err := workload.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := jacobi.Compile(map[string]int{"n": 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *graph.TaskGraph
		family  string
		ceiling float64
	}{
		{"jacobi n=12", grid.Graph, canned.FamilyGrid, 132},
		{"hypercube(6)", gen.FromNetwork(topology.Hypercube(6)), canned.FamilyHypercube, 24},
		{"binomial(6)", gen.FromNetwork(topology.BinomialTree(6)), canned.FamilyBinomial, 180},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate(t, "canned.Detect", tc.ceiling, func() {
				if d := canned.Detect(tc.g); d == nil || d.Family != tc.family {
					t.Fatalf("detected %v, want %s", d, tc.family)
				}
			})
		})
	}
}

// TestAllocBudgetCompile gates the LaRCS compiler, which every cache
// miss runs. Expansion evaluates closures over one reused frame, so the
// count is the lowering's O(AST) closures plus a fixed number of slices
// per phase, whatever the program expands to: jacobi n=100 (1e4 tasks,
// 39.6k edges) measures 84 allocs/op, where the tree-walking
// interpreter made ~177k (4.5 per edge), and nbody at its defaults 86.
// Ceilings are ~2x the measured counts.
func TestAllocBudgetCompile(t *testing.T) {
	for _, tc := range []struct {
		workload  string
		overrides map[string]int
		ceiling   float64
	}{
		{"jacobi", map[string]int{"n": 100}, 170},
		{"nbody", nil, 170},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := workload.ByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := larcs.Parse(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			bindings := w.Bindings(tc.overrides)
			gate(t, "larcs.Compile "+tc.workload, tc.ceiling, func() {
				if _, err := prog.Compile(bindings, larcs.Limits{}); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestAllocBudgetGroupContract gates the group-theoretic contraction.
// nbody n=35 into 35 clusters asks for a subgroup of order 1, which no
// generator gives, so it takes the subgroup-lattice path; broadcast8
// into 4 clusters is answered by a single generator's cyclic subgroup.
// The string-keyed group cost 380,762 and 471 allocs/op on these two
// cases; ceilings are ~1.5x the index-based counts (180 and 78).
func TestAllocBudgetGroupContract(t *testing.T) {
	for _, tc := range []struct {
		workload string
		bindings map[string]int
		clusters int
		ceiling  float64
	}{
		{"nbody", map[string]int{"n": 35}, 35, 270},
		{"broadcast8", nil, 4, 117},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := workload.ByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			c, err := w.Compile(tc.bindings)
			if err != nil {
				t.Fatal(err)
			}
			gate(t, "contract.GroupContract", tc.ceiling, func() {
				if _, _, err := contract.GroupContract(context.Background(), c.Graph, tc.clusters); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestAllocBudgetServeHit gates a warm mapd cache hit end to end in
// process: POST /v1/map through Server.Handler() — decode, resolve,
// cache lookup with its fingerprint check, encode — with jacobi n=8 on
// hypercube(4). The front-end memos make a hit skip the LaRCS parse and
// format and the network build: it measured 719 allocs/op and 65.3 kB
// before them. Ceilings are 10% over the measured 66 allocs/op and
// 15,216 bytes/op.
func TestAllocBudgetServeHit(t *testing.T) {
	skipAllocGate(t)
	h := serve.New(serve.Config{}).Handler()
	body := []byte(`{"workload":"jacobi","bindings":{"n":8},"net":"hypercube:4"}`)
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	post() // the miss that fills the cache
	if rec := post(); !bytes.Contains(rec.Body.Bytes(), []byte(`"cache": "hit"`)) {
		t.Fatalf("second request is not a hit: %s", rec.Body)
	}
	hit := func() { post() }
	gate(t, "serve /v1/map hit", 73, hit)
	bytesGate(t, "serve /v1/map hit", 16738, hit)
}
