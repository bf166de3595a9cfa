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
// pipeline's count is large and stable. Every gate also holds bytes/op
// to 10% over a recorded value (bytesGate; the serve miss gate is
// tighter, see there): no stage pools its buffers, so the bytes are
// what a request pays.
//
// The gates are skipped under the race detector (instrumentation
// allocates) and in -short mode; `make check` runs them in a dedicated
// non-race pass.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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

// TestAllocBudgetGraphBuild gates generating allocWorkload's graph and
// building its CSR. Bytes ceiling: 10% over the measured 4,167,623
// bytes/op.
func TestAllocBudgetGraphBuild(t *testing.T) {
	fn := func() {
		g := gen.TaskGraph(gen.Rand(7), gen.GraphSize{Tasks: 160, Phases: 8, Density: 0.15, MaxWeight: 8})
		g.CSR()
	}
	gate(t, "graph build + CSR", 700, fn)
	bytesGate(t, "graph build + CSR", 4584386, fn)
}

// TestAllocBudgetCSRJacobi gates the CSR build on the scale user's
// graph, jacobi n=100 (1e4 tasks, 39.6k edges), from a fresh copy each
// run: 19 allocs/op, the copy's slices, the collapse's three buffers
// and the CSR's own arrays, whatever the edge count. Ceiling ~2x; the
// bytes ceiling is 10% over the measured 3,768,730 bytes/op.
func TestAllocBudgetCSRJacobi(t *testing.T) {
	w, err := workload.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Compile(map[string]int{"n": 100})
	if err != nil {
		t.Fatal(err)
	}
	fn := func() {
		if c.Graph.Clone().CSR().NumPairs() == 0 {
			t.Fatal("no pairs")
		}
	}
	gate(t, "clone + CSR jacobi n=100", 40, fn)
	bytesGate(t, "clone + CSR jacobi n=100", 4145604, fn)
}

// TestAllocBudgetCollapsedEntries gates the per-phase collapsed pair
// list on allocWorkload. Bytes ceiling: 10% over the measured 2,213,258
// bytes/op.
func TestAllocBudgetCollapsedEntries(t *testing.T) {
	c, _ := allocWorkload(t)
	fn := func() {
		if len(c.Graph.CollapsedEntries()) == 0 {
			t.Fatal("no entries")
		}
	}
	gate(t, "CollapsedEntries()", 8, fn)
	bytesGate(t, "CollapsedEntries()", 2434584, fn)
}

// TestAllocBudgetClusterGraph gates mapping.ClusterGraph, which every
// arbitrary, group and canned-fold request runs, on allocWorkload
// contracted by MWM-Contract: 54 allocs/op, a fixed few per phase
// (the fold's buffers and the phase's edges). The per-phase map, order
// slice and sort.Slice it replaced took 301. Ceiling ~2x; the bytes
// ceiling is 10% over the measured 871,304 bytes/op.
func TestAllocBudgetClusterGraph(t *testing.T) {
	c, net := allocWorkload(t)
	part, err := contract.MWMContract(c.Graph, contract.Options{Processors: net.N, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := mapping.New(c.Graph, net)
	m.Part = part
	fn := func() {
		if m.ClusterGraph().NumTasks != net.N {
			t.Fatal("cluster count changed")
		}
	}
	gate(t, "ClusterGraph", 108, fn)
	bytesGate(t, "ClusterGraph", 958435, fn)
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
// hypercube(4). Its bytes ceiling is 10% over the measured 15,920
// bytes/op: the call's two slabs, the routes and their backing (21,680
// while the working buffers were sized by every pair, with a separate
// candidate buffer).
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
	bytesGate(t, "MMRoute", 17512, fn)
}

// TestAllocBudgetDistance holds Distance to zero allocations: it sits
// on NN-Embed's and MM-Route's innermost loops, so one allocation per
// call multiplies into millions per request. Every analytic family is
// covered, hier included, plus a degraded view (table lookups; the
// table is built by AllocsPerRun's warm-up call). Bytes are held to
// zero too.
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
		fn := func() {
			sum := 0
			for a := 0; a < net.N; a += 3 {
				for b := 0; b < net.N; b += 7 {
					sum += net.Distance(a, b)
				}
			}
			if sum == 0 {
				t.Fatal("all distances zero")
			}
		}
		gate(t, net.Name+" Distance", 0, fn)
		bytesGate(t, net.Name+" Distance", 0, fn)
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
// over the measured 274,565 bytes/op (299,141 with working buffers
// sized by every pair).
func TestAllocBudgetRouteHier(t *testing.T) {
	net, pairs := hierRouteInput()
	fn := func() {
		if _, _, err := route.MMRoute(net, pairs, route.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	gate(t, "MMRoute hier(4x4x4x8)", 4, fn)
	bytesGate(t, "MMRoute hier(4x4x4x8)", 302022, fn)
}

// TestAllocBudgetRouteSelfPairs gates MM-Route on the busiest phase of
// the ml-stencil request (jacobi n=100 mapped by multilevel onto
// hier(4x4x4x8)): 39,600 pairs of which 8,696 cross processors. Its
// working buffers are sized by the routed pairs, so the self pairs cost
// only their nil route headers. A run makes 4 allocations (the route
// slice, the shared backing and the two slabs); the bytes ceiling is
// 10% over the measured 1,975,562 bytes/op, where slabs sized by every
// pair read 5,423,125.
func TestAllocBudgetRouteSelfPairs(t *testing.T) {
	skipAllocGate(t)
	net, pairs := busiestMultilevelPhase(t)
	fn := func() {
		if _, _, err := route.MMRoute(net, pairs, route.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	gate(t, "MMRoute ml-stencil phase", 4, fn)
	bytesGate(t, "MMRoute ml-stencil phase", 2173118, fn)
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

// TestAllocBudgetMetrics gates METRICS on allocWorkload's mapping.
// Bytes ceiling: 10% over the measured 5,312 bytes/op.
func TestAllocBudgetMetrics(t *testing.T) {
	c, net := allocWorkload(t)
	res, err := core.Map(core.Request{Compiled: c, Net: net, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	fn := func() {
		if _, err := metrics.ComputeN(res.Mapping, 1); err != nil {
			t.Fatal(err)
		}
	}
	gate(t, "metrics.ComputeN", 20, fn)
	bytesGate(t, "metrics.ComputeN", 5844, fn)
}

// TestAllocBudgetFingerprint gates check.Fingerprint, which runs on
// every served miss and every live cache hit, on a routed 8-phase
// mapping. A warm run makes 2 allocations (the sorted phase names and
// the one pre-sized output buffer); the fmt-based writer it replaced
// allocated once per route. Bytes ceiling: 10% over the measured
// 229,509 bytes/op.
func TestAllocBudgetFingerprint(t *testing.T) {
	c, net := allocWorkload(t)
	res, err := core.Map(core.Request{Compiled: c, Net: net, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping.Routes) < 2 {
		t.Fatalf("mapping has %d routed phases, want a multi-phase mapping", len(res.Mapping.Routes))
	}
	fn := func() {
		if check.Fingerprint(res.Mapping) == "" {
			t.Fatal("empty fingerprint")
		}
	}
	gate(t, "check.Fingerprint", 4, fn)
	bytesGate(t, "check.Fingerprint", 252460, fn)
}

// TestAllocBudgetMultilevelContract gates the multilevel coarsen and
// initial partition on a 2000-task graph into 64 parts. Bytes ceiling:
// 10% over the measured 9,779,608 bytes/op.
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
	fn := func() {
		if _, _, err := multilevel.Contract(g, opt); err != nil {
			t.Fatal(err)
		}
	}
	gate(t, "multilevel.Contract", 5500, fn)
	bytesGate(t, "multilevel.Contract", 10757569, fn)
}

// TestAllocBudgetPipeline gates the full core.Map pipeline at each
// Parallelism budget. Each ceiling is 10% over the allocs/op that
// BenchmarkParallelPipeline last recorded for that worker count (4183,
// 4243 and 4224 for 1, 2 and 4 workers). Each bytes ceiling is 10% over
// the bytes/op measured at that worker count (8,810,759, 9,098,154 and
// 9,098,622; 9,470,230, 9,757,766 and 9,757,985 while MM-Route sized its
// working buffers by every pair).
func TestAllocBudgetPipeline(t *testing.T) {
	c, net := allocWorkload(t)
	for _, tc := range []struct {
		workers int
		ceiling float64
		bytes   float64
	}{
		{1, 4601, 9691835},
		{2, 4667, 10007969},
		{4, 4646, 10008484},
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
// are ~1.5x the CSR-walking counts (88, 16 and 120); bytes ceilings
// are 10% over the measured 12,736, 2,824 and 4,272 bytes/op.
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
		bytes   float64
	}{
		{"jacobi n=12", grid.Graph, canned.FamilyGrid, 132, 14010},
		{"hypercube(6)", gen.FromNetwork(topology.Hypercube(6)), canned.FamilyHypercube, 24, 3107},
		{"binomial(6)", gen.FromNetwork(topology.BinomialTree(6)), canned.FamilyBinomial, 180, 4700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fn := func() {
				if d := canned.Detect(tc.g); d == nil || d.Family != tc.family {
					t.Fatalf("detected %v, want %s", d, tc.family)
				}
			}
			gate(t, "canned.Detect", tc.ceiling, fn)
			bytesGate(t, "canned.Detect", tc.bytes, fn)
		})
	}
}

// TestAllocBudgetCompile gates the LaRCS compiler, which every cache
// miss runs. Expansion evaluates closures over one reused frame, so the
// count is the lowering's O(AST) closures plus a fixed number of slices
// per phase, whatever the program expands to: jacobi n=100 (1e4 tasks,
// 39.6k edges) measures 84 allocs/op, where the tree-walking
// interpreter made ~177k (4.5 per edge), and nbody at its defaults 86.
// Ceilings are ~2x the measured counts; bytes ceilings are 10% over the
// measured 1,249,331 and 4,688 bytes/op.
func TestAllocBudgetCompile(t *testing.T) {
	for _, tc := range []struct {
		workload  string
		overrides map[string]int
		ceiling   float64
		bytes     float64
	}{
		{"jacobi", map[string]int{"n": 100}, 170, 1374265},
		{"nbody", nil, 170, 5157},
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
			fn := func() {
				if _, err := prog.Compile(bindings, larcs.Limits{}); err != nil {
					t.Fatal(err)
				}
			}
			gate(t, "larcs.Compile "+tc.workload, tc.ceiling, fn)
			bytesGate(t, "larcs.Compile "+tc.workload, tc.bytes, fn)
		})
	}
}

// TestAllocBudgetGroupContract gates the group-theoretic contraction.
// nbody n=35 into 35 clusters asks for a subgroup of order 1, which no
// generator gives, so it takes the subgroup-lattice path; broadcast8
// into 4 clusters is answered by a single generator's cyclic subgroup.
// The string-keyed group cost 380,762 and 471 allocs/op on these two
// cases; ceilings are ~1.5x the index-based counts (180 and 78), and
// bytes ceilings 10% over the measured 27,032 and 3,688 bytes/op.
func TestAllocBudgetGroupContract(t *testing.T) {
	for _, tc := range []struct {
		workload string
		bindings map[string]int
		clusters int
		ceiling  float64
		bytes    float64
	}{
		{"nbody", map[string]int{"n": 35}, 35, 270, 29736},
		{"broadcast8", nil, 4, 117, 4057},
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
			fn := func() {
				if _, _, err := contract.GroupContract(context.Background(), c.Graph, tc.clusters); err != nil {
					t.Fatal(err)
				}
			}
			gate(t, "contract.GroupContract", tc.ceiling, fn)
			bytesGate(t, "contract.GroupContract", tc.bytes, fn)
		})
	}
}

// TestAllocBudgetServeHit gates a warm mapd cache hit end to end in
// process: POST /v1/map through Server.Handler() — decode, resolve,
// cache lookup with its fingerprint check, encode — with jacobi n=8 on
// hypercube(4). The front-end memos make a hit skip the LaRCS parse and
// format and the network build: it measured 719 allocs/op and 65.3 kB
// before them, and 66 allocs/op and 15,216 bytes/op while every hit
// re-encoded its whole response. A hit now writes its entry's stored
// bytes after its own per-request fields, keys the request without fmt
// and skips the singleflight. Ceilings are 10% over the measured 46
// allocs/op and 10,544 bytes/op.
func TestAllocBudgetServeHit(t *testing.T) {
	skipAllocGate(t)
	h := serve.New(serve.Config{}).Handler()
	post := servePost(t, h, `{"workload":"jacobi","bindings":{"n":8},"net":"hypercube:4"}`)
	post() // the miss that fills the cache
	if got := decodeAnswer(t, post()); got.Cache != "hit" {
		t.Fatalf("second request is not a hit: %+v", got)
	}
	hit := func() { post() }
	gate(t, "serve /v1/map hit", 51, hit)
	bytesGate(t, "serve /v1/map hit", 11598, hit)
}

// TestAllocBudgetServeMiss gates a mapd computation end to end in
// process: a nocache POST /v1/map of jacobi n=8 onto hypercube(4), so
// every run compiles, maps, measures and fingerprints. It pins that a
// miss marshals its response once, into the bytes its cache entry keeps
// and writes. It measures 326 allocs/op and 86,424 bytes/op (103,576
// before MM-Route sized its working buffers by the routed pairs);
// encoding the response a second time for the wire made 344 allocs/op
// and ~5 kB more. The ceilings, 5% and 3% over the measured values, sit
// below those, so the gate fails if a second encode comes back.
func TestAllocBudgetServeMiss(t *testing.T) {
	skipAllocGate(t)
	h := serve.New(serve.Config{}).Handler()
	post := servePost(t, h, `{"workload":"jacobi","bindings":{"n":8},"net":"hypercube:4","options":{"nocache":true}}`)
	if got := decodeAnswer(t, post()); got.Cache != "bypass" {
		t.Fatalf("nocache request answered %q, want bypass", got.Cache)
	}
	miss := func() { post() }
	gate(t, "serve /v1/map miss", 342, miss)
	bytesGate(t, "serve /v1/map miss", 89017, miss)
}

// servePost returns a function that POSTs body to h's /v1/map and
// requires a 200.
func servePost(t *testing.T, h http.Handler, body string) func() *httptest.ResponseRecorder {
	return func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
}

// decodeAnswer decodes a recorded /v1/map answer.
func decodeAnswer(t *testing.T, rec *httptest.ResponseRecorder) serve.MapResponse {
	t.Helper()
	var got serve.MapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode %s: %v", rec.Body, err)
	}
	return got
}
