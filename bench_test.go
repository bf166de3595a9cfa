package oregami

// Benchmark harness: one benchmark per paper figure/claim (see the
// per-experiment index in DESIGN.md) plus the ablations called out
// there. cmd/experiments prints the corresponding tables; these
// benchmarks measure the cost of regenerating them.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"oregami/internal/aggregate"
	"oregami/internal/canned"
	"oregami/internal/contract"
	"oregami/internal/core"
	"oregami/internal/embed"
	"oregami/internal/graph"
	"oregami/internal/group"
	"oregami/internal/larcs"
	"oregami/internal/perm"
	"oregami/internal/route"
	"oregami/internal/sched"
	"oregami/internal/spawn"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// --- F2: LaRCS compilation ----------------------------------------------

func BenchmarkLaRCSCompileNBody(b *testing.B) {
	w, _ := workload.ByName("nbody")
	prog, err := larcs.Parse(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{15, 101, 1001} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prog.Compile(map[string]int{"n": n, "s": 2}, larcs.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- The collapsed static graph ------------------------------------------

// BenchmarkCSR builds the collapsed static graph's CSR from a fresh copy
// of the task graph every iteration (the CSR is cached per graph, so a
// copy is the only way to rebuild it); the rows include that copy.
func BenchmarkCSR(b *testing.B) {
	w, err := workload.ByName("jacobi")
	if err != nil {
		b.Fatal(err)
	}
	jacobi, err := w.Compile(map[string]int{"n": 100})
	if err != nil {
		b.Fatal(err)
	}
	random, _ := allocWorkload(b)
	for _, tc := range []struct {
		name string
		g    *graph.TaskGraph
	}{
		{"jacobi-n=100", jacobi.Graph},
		{"gen-160x8", random.Graph},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.g.Clone().CSR()
			}
		})
	}
}

// --- F4 / C2: group theory ----------------------------------------------

func BenchmarkGroupContract(b *testing.B) {
	w, _ := workload.ByName("broadcast8")
	c, _ := w.Compile(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := contract.GroupContract(context.Background(), c.Graph, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupClosure(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		gens := make([]perm.Perm, 0, 3)
		for _, shift := range []int{1, 2, n / 2} {
			img := make([]int, n)
			for i := range img {
				img[i] = (i + shift) % n
			}
			p, _ := perm.FromImage(img)
			gens = append(gens, p)
		}
		b.Run(fmt.Sprintf("X=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := group.Generate(gens, n); !ok {
					b.Fatal("generation aborted")
				}
			}
		})
	}
}

// --- F5 / C3: contraction -----------------------------------------------

func BenchmarkMWMContract(b *testing.B) {
	b.Run("fig5", func(b *testing.B) {
		g := workload.Fig5Graph()
		for i := 0; i < b.N; i++ {
			if _, err := contract.MWMContract(g, contract.Options{Processors: 3, MaxTasksPerProc: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{32, 64, 128} {
		g := workload.RandomTaskGraph(n, 0.3, 20, int64(n))
		p := n / 4
		b.Run(fmt.Sprintf("random-n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := contract.MWMContract(g, contract.Options{Processors: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkContractBaselines(b *testing.B) {
	g := workload.RandomTaskGraph(48, 0.3, 20, 7)
	b.Run("mwm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := contract.MWMContract(g, contract.Options{Processors: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := contract.GreedyOnly(g, 8, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			contract.Random(g, 8, int64(i))
		}
	})
}

func BenchmarkContractAblation(b *testing.B) {
	g := workload.RandomTaskGraph(64, 0.3, 20, 11)
	for _, tc := range []struct {
		name string
		opt  contract.Options
	}{
		{"full", contract.Options{Processors: 8}},
		{"skip-greedy", contract.Options{Processors: 8, SkipGreedy: true}},
		{"skip-matching", contract.Options{Processors: 8, SkipMatching: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := contract.MWMContract(g, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F6 / C4: routing ---------------------------------------------------

func BenchmarkMMRoute(b *testing.B) {
	b.Run("fig6", func(b *testing.B) {
		net := topology.Hypercube(3)
		pairs := workload.Fig6Pairs()
		for i := 0; i < b.N; i++ {
			route.MMRoute(net, pairs, route.Options{})
		}
	})
	for _, d := range []int{4, 6, 8} {
		net := topology.Hypercube(d)
		var pairs [][2]int
		for v := 0; v < net.N; v++ {
			pairs = append(pairs, [2]int{v, (v + net.N/2 + 1) % net.N})
		}
		b.Run(fmt.Sprintf("perm-hypercube-%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				route.MMRoute(net, pairs, route.Options{})
			}
		})
	}
	// The busiest phase of jacobi n=100 mapped by multilevel onto the
	// 512-PE hierarchy: shortest next hops there are almost all unique.
	net, pairs := busiestMultilevelPhase(b)
	b.Run("ml-stencil-hier-4x4x4x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			route.MMRoute(net, pairs, route.Options{})
		}
	})
}

// busiestMultilevelPhase maps jacobi n=100 with the multilevel engine
// onto hier:4,4,4,8 and returns the pairs of the phase whose routes make
// the most hops.
func busiestMultilevelPhase(b *testing.B) (*topology.Network, [][2]int) {
	w, err := workload.ByName("jacobi")
	if err != nil {
		b.Fatal(err)
	}
	c, err := w.Compile(map[string]int{"n": 100})
	if err != nil {
		b.Fatal(err)
	}
	net := topology.Hierarchy(4, 4, 4, 8)
	res, err := core.Map(core.Request{Compiled: c, Net: net, Force: core.ClassMultilevel})
	if err != nil {
		b.Fatal(err)
	}
	var busiest [][2]int
	most := -1
	for _, p := range res.Mapping.Graph.Comm {
		hops := 0
		for _, r := range res.Mapping.Routes[p.Name] {
			hops += len(r)
		}
		if hops > most {
			pairs, err := route.PhasePairs(res.Mapping, p.Name)
			if err != nil {
				b.Fatal(err)
			}
			busiest, most = pairs, hops
		}
	}
	return net, busiest
}

func BenchmarkRouteBaselines(b *testing.B) {
	net := topology.Hypercube(6)
	var pairs [][2]int
	for v := 0; v < net.N; v++ {
		pairs = append(pairs, [2]int{v, (v*37 + 11) % net.N})
	}
	b.Run("mm-route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			route.MMRoute(net, pairs, route.Options{})
		}
	})
	b.Run("ecube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			route.ECube(net, pairs)
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			route.RandomShortest(net, pairs, int64(i))
		}
	})
}

func BenchmarkRouteMatchingAblation(b *testing.B) {
	net := topology.Hypercube(5)
	var pairs [][2]int
	for v := 0; v < net.N; v++ {
		pairs = append(pairs, [2]int{v, net.N - 1 - v})
	}
	for _, tc := range []struct {
		name string
		opt  route.Options
	}{
		{"greedy-maximal", route.Options{}},
		{"hopcroft-karp", route.Options{UseMaximum: true}},
		{"no-refine", route.Options{NoRefine: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				route.MMRoute(net, pairs, tc.opt)
			}
		})
	}
}

// --- C1: binomial tree embedding ----------------------------------------

func BenchmarkBinomialMeshEmbed(b *testing.B) {
	for _, k := range []int{8, 10, 12, 14} {
		rows := 1 << uint((k+1)/2)
		cols := 1 << uint(k/2)
		net := topology.Mesh(rows, cols)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := canned.BinomialIntoMesh(k, net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 6 extensions -------------------------------------------------

func BenchmarkSynchronySchedule(b *testing.B) {
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(map[string]int{"n": 63, "s": 1})
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Hypercube(4)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Build(res.Mapping); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregationTree(b *testing.B) {
	g := graphFanIn(64)
	res, err := core.MapGraph(g, topology.Hypercube(6), core.ClassArbitrary)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.Replace(res.Mapping, "collect"); err != nil {
			b.Fatal(err)
		}
	}
}

func graphFanIn(n int) *graph.TaskGraph {
	g := graph.New("gather", n)
	p := g.AddCommPhase("collect")
	for i := 1; i < n; i++ {
		g.AddEdge(p, i, 0, 1)
	}
	return g
}

func BenchmarkSpawning(b *testing.B) {
	net := topology.Hypercube(6)
	for i := 0; i < b.N; i++ {
		sp, err := spawn.NewBinaryTree(6)
		if err != nil {
			b.Fatal(err)
		}
		im, err := spawn.NewIncrementalMapping(sp, net)
		if err != nil {
			b.Fatal(err)
		}
		im.RunAll()
	}
}

// --- Refinement ablations ---------------------------------------------------

func BenchmarkKLRefine(b *testing.B) {
	g := workload.RandomTaskGraph(64, 0.3, 20, 13)
	base := contract.Random(g, 8, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := append([]int(nil), base...)
		contract.KLRefine(context.Background(), g, part, 8, 8)
	}
}

func BenchmarkSwapRefine(b *testing.B) {
	g := workload.RandomTaskGraph(16, 0.5, 20, 19)
	net := topology.Hypercube(4)
	base, err := embed.Random(16, net, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place := append([]int(nil), base...)
		embed.SwapRefine(context.Background(), g, net, place, 8)
	}
}

func BenchmarkStoneAssignment(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		g := workload.RandomTaskGraph(n, 0.3, 20, int64(n+3))
		execA := make([]float64, n)
		execB := make([]float64, n)
		for i := range execA {
			execA[i] = float64(i % 7)
			execB[i] = float64((i * 3) % 11)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := contract.TwoProcStone(g, execA, execB); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMapWithRefine(b *testing.B) {
	g := workload.RandomTaskGraph(48, 0.3, 15, 21)
	comp := &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}
	net := topology.Hypercube(3)
	for _, tc := range []struct {
		name   string
		refine bool
	}{{"plain", false}, {"refine", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Map(core.Request{Compiled: comp, Net: net, Force: core.ClassArbitrary, Refine: tc.refine}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel MAPPER hot paths ------------------------------------------

// BenchmarkParallelPipeline measures the full pipeline on
// allocWorkload at increasing Parallelism budgets; workers=1 is the
// sequential baseline. The budget changes wall-clock only, never the
// mapping, so compare worker counts only on a multicore host. Its
// allocs/op are gated by TestAllocBudgetPipeline.
func BenchmarkParallelPipeline(b *testing.B) {
	c, net := allocWorkload(b)
	if _, err := core.Map(core.Request{Compiled: c, Net: net, Check: true, Parallelism: 0}); err != nil {
		b.Fatal(err)
	}
	workers := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		workers = append(workers, g)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Map(core.Request{Compiled: c, Net: net, Parallelism: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
