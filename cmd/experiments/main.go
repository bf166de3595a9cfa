// Command experiments regenerates every figure and quantitative claim of
// the paper (see DESIGN.md's per-experiment index):
//
//	F1  system overview: full pipeline on the n-body problem
//	F2  n-body task graph + LaRCS description (Fig 2)
//	F3  MAPPER dispatch taxonomy (Fig 3)
//	F4  group-theoretic contraction of the 8-node perfect broadcast (Fig 4)
//	F5  MWM-Contract on the 12-task example (Fig 5)
//	F6  MM-Route of the 15-body chordal phase on the 8-node hypercube (Fig 6)
//	C1  binomial tree -> mesh: average dilation <= 1.2 (Section 4.1)
//	C2  group generation cost scales as O(|X|^2) (Section 4.2.2)
//	C3  MWM-Contract vs greedy-only and random contraction (Section 4.3)
//	C4  MM-Route contention vs oblivious routing (Section 4.4)
//	C5  LaRCS description is ~10x smaller than the expanded graph (Section 3)
//	E1-E3  the Section 6 extensions (scheduling, aggregation, spawning)
//
// Usage: experiments [-run F4,C1] (default all).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"oregami/internal/aggregate"
	"oregami/internal/canned"
	"oregami/internal/contract"
	"oregami/internal/core"
	"oregami/internal/graph"
	"oregami/internal/group"
	"oregami/internal/mapping"
	"oregami/internal/metrics"
	"oregami/internal/perm"
	"oregami/internal/route"
	"oregami/internal/sched"
	"oregami/internal/sim"
	"oregami/internal/spawn"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

var experiments = []struct {
	id   string
	name string
	run  func()
}{
	{"F1", "system overview: full pipeline on the n-body problem", runF1},
	{"F2", "n-body task graph and LaRCS description (Fig 2)", runF2},
	{"F3", "MAPPER dispatch taxonomy (Fig 3)", runF3},
	{"F4", "group-theoretic contraction of the perfect broadcast (Fig 4)", runF4},
	{"F5", "MWM-Contract on the 12-task example (Fig 5)", runF5},
	{"F6", "MM-Route of the 15-body chordal phase (Fig 6)", runF6},
	{"C1", "binomial tree -> mesh average dilation <= 1.2", runC1},
	{"C2", "group generation scales as O(|X|^2)", runC2},
	{"C3", "MWM-Contract vs baselines", runC3},
	{"C4", "MM-Route contention vs oblivious routing", runC4},
	{"C5", "LaRCS description compactness", runC5},
	{"E1", "extension: task synchrony sets and scheduling directives (Sec 6)", runE1},
	{"E2", "extension: aggregation topology selection (Sec 6)", runE2},
	{"E3", "extension: dynamically spawned tasks (Sec 6)", runE3},
}

func main() {
	runList := flag.String("run", "all", "comma-separated experiment ids, or all")
	flag.Parse()
	want := map[string]bool{}
	if *runList != "all" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	ran := 0
	for _, e := range experiments {
		if *runList != "all" && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.name)
		e.run()
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "experiments: no experiment matched -run")
		os.Exit(1)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runF1: the Fig 1 pipeline, end to end, with the simulator standing in
// for the target machine.
func runF1() {
	w, err := workload.ByName("nbody")
	must(err)
	c, err := w.Compile(map[string]int{"n": 15, "s": 2})
	must(err)
	net := topology.Hypercube(3)
	res, err := core.Map(core.Request{Compiled: c, Net: net})
	must(err)
	fmt.Printf("LaRCS     : %d tasks, %d edges, phase expr %s\n",
		c.Graph.NumTasks, c.Graph.NumEdges(), c.Phases)
	fmt.Printf("MAPPER    : class %s, method %s\n", res.Class, res.Mapping.Method)
	rep, err := metrics.Compute(res.Mapping)
	must(err)
	fmt.Printf("METRICS   : IPC %g/%g, imbalance %.3f\n", rep.TotalIPC, rep.TotalVolume, rep.Load.Imbalance)
	total, err := sim.Makespan(res.Mapping, c.Phases, sim.Config{}, 1<<20)
	must(err)
	fmt.Printf("simulator : completion time %g ticks\n", total)
	fmt.Println("paper     : describes the same four-stage flow (Fig 1); no numbers to match")
}

// runF2: the Fig 2 task graph.
func runF2() {
	w, err := workload.ByName("nbody")
	must(err)
	c, err := w.Compile(map[string]int{"n": 15, "s": 2})
	must(err)
	ring := c.Graph.CommPhaseByName("ring")
	chordal := c.Graph.CommPhaseByName("chordal")
	fmt.Printf("ring edges    : i -> (i+1) mod 15    (%d edges)\n", len(ring.Edges))
	fmt.Printf("chordal edges : i -> (i+8) mod 15    (%d edges)\n", len(chordal.Edges))
	fmt.Printf("phase expr    : %s\n", c.Phases)
	fmt.Printf("paper         : ((ring; compute1)^((n+1)/2); chordal; compute2)^s with n=15, s=2\n")
	ok := true
	for _, e := range ring.Edges {
		if e.To != (e.From+1)%15 {
			ok = false
		}
	}
	for _, e := range chordal.Edges {
		if e.To != (e.From+8)%15 {
			ok = false
		}
	}
	fmt.Printf("edge functions match the paper: %v\n", ok)
}

// runF3: one workload through each dispatcher branch.
func runF3() {
	cases := []struct {
		workload  string
		overrides map[string]int
		net       *topology.Network
		expect    core.Class
	}{
		{"jacobi", map[string]int{"n": 4}, topology.Mesh(4, 4), core.ClassCanned},
		{"systolicmm", map[string]int{"n": 4}, topology.Linear(4), core.ClassSystolic},
		{"broadcast8", nil, topology.Hypercube(2), core.ClassGroup},
		{"nbody", map[string]int{"n": 15, "s": 1}, topology.Hypercube(3), core.ClassArbitrary},
	}
	fmt.Printf("%-12s %-14s %-16s %-16s\n", "workload", "network", "class (measured)", "class (expected)")
	for _, tc := range cases {
		w, err := workload.ByName(tc.workload)
		must(err)
		c, err := w.Compile(tc.overrides)
		must(err)
		res, err := core.Map(core.Request{Compiled: c, Net: tc.net})
		must(err)
		fmt.Printf("%-12s %-14s %-16s %-16s\n", tc.workload, tc.net.Name, res.Class, tc.expect)
	}
}

// runF4: the paper's worked example, element by element.
func runF4() {
	w, err := workload.ByName("broadcast8")
	must(err)
	c, err := w.Compile(nil)
	must(err)
	var gens []perm.Perm
	for _, p := range c.Graph.Comm {
		img, _ := c.Graph.PhasePermutation(p)
		pm, _ := perm.FromImage(img)
		gens = append(gens, pm)
		fmt.Printf("%s = %s\n", p.Name, pm)
	}
	g, ok := group.Generate(gens, 8)
	if !ok {
		must(fmt.Errorf("group generation aborted"))
	}
	fmt.Printf("|G| = %d = |X|, regular action: %v\n", g.Order(), g.ActsRegularly())
	// Print E0..E7 in the paper's order (rotation amount = task of elem).
	byTask := make([]perm.Perm, 8)
	for i, e := range g.Elements {
		byTask[g.TaskOfElement(i)] = e
	}
	for t, e := range byTask {
		fmt.Printf("E%d = %-24s <-> task%d\n", t, e.String(), t)
	}
	part, info, err := contract.GroupContract(context.Background(), c.Graph, 4)
	must(err)
	var subNames []string
	for _, e := range info.Subgroup {
		subNames = append(subNames, fmt.Sprintf("E%d", g.TaskOfElement(e)))
	}
	fmt.Printf("subgroup {%s} from generator %s (normal=%v, Sylow guarantee=%v)\n",
		strings.Join(subNames, ","), info.FromGenerator, info.Normal, info.SylowGuaranteed)
	clusters := map[int][]int{}
	for t, cl := range part {
		clusters[cl] = append(clusters[cl], t)
	}
	var keys []int
	for k := range clusters {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Printf("cluster %d: tasks %v\n", k, clusters[k])
	}
	fmt.Printf("messages internalized per cluster: %v\n", info.InternalizedPerCluster)
	fmt.Println("paper: subgroup {E0,E4} from comm3 = (04)(15)(26)(37); 2 messages internalized per cluster")
}

// runF5: the Fig 5 contraction.
func runF5() {
	g := workload.Fig5Graph()
	part, err := contract.MWMContract(g, contract.Options{Processors: 3, MaxTasksPerProc: 4})
	must(err)
	clusters := map[int][]int{}
	for t, c := range part {
		clusters[c] = append(clusters[c], t)
	}
	for c := 0; c < len(clusters); c++ {
		fmt.Printf("processor %d: tasks %v\n", c, clusters[c])
	}
	fmt.Printf("total IPC (measured): %g\n", g.EdgeCut(part))
	fmt.Println("total IPC (paper)   : 6, optimal for this instance")
	gre, err := contract.GreedyOnly(g, 3, 4)
	must(err)
	fmt.Printf("greedy-only baseline: %g\n", g.EdgeCut(gre))
	fmt.Printf("random baseline     : %g\n", g.EdgeCut(contract.Random(g, 3, 1)))
}

// runF6: the Fig 6 routing table.
func runF6() {
	net := topology.Hypercube(3)
	pairs := workload.Fig6Pairs()
	fmt.Println("chordal phase of the 15-body problem on hypercube(3); clusters {i, i+8} on node i")
	fmt.Printf("%-10s %-10s %-8s %-22s %s\n", "message", "src->dst", "#routes", "choices (first two)", "assigned route (links)")
	routes, stats, err := route.MMRoute(net, pairs, route.Options{})
	if err != nil {
		panic(fmt.Sprintf("experiments: routing Fig 6 pairs: %v", err))
	}
	for i, p := range pairs {
		count := net.CountShortestRoutes(p[0], p[1])
		desc, choices := "local", "-"
		if p[0] != p[1] {
			desc = fmt.Sprint(routes[i])
			var cs []string
			for _, r := range net.ShortestRoutes(p[0], p[1], 2) {
				cs = append(cs, fmt.Sprint(r))
			}
			choices = strings.Join(cs, " ")
		}
		fmt.Printf("%2d->%-6d %d->%-8d %-8d %-22s %s\n", i, (i+8)%15, p[0], p[1], count, choices, desc)
	}
	fmt.Printf("matching rounds: %d, max link contention (measured): %d\n", stats.Rounds, stats.MaxContention)
	ec := route.ECube(net, pairs)
	fmt.Printf("e-cube baseline max contention: %d\n", route.MaxContention(net, ec))
	fmt.Println("paper: maximal matchings assign distinct links per round -> low contention (no number given)")
}

// runC1: the average-dilation sweep.
func runC1() {
	fmt.Printf("%-4s %-10s %-12s %-12s %-12s\n", "k", "mesh", "avg dilation", "max dilation", "bound 1.2")
	for k := 2; k <= 16; k++ {
		rows := 1 << uint((k+1)/2)
		cols := 1 << uint(k/2)
		net := topology.Mesh(rows, cols)
		e, err := canned.BinomialIntoMesh(k, net)
		must(err)
		sum, count, maxD := 0, 0, 0
		for v := 1; v < 1<<uint(k); v++ {
			d := net.Distance(e.Proc[v], e.Proc[v&(v-1)])
			sum += d
			count++
			if d > maxD {
				maxD = d
			}
		}
		avg := float64(sum) / float64(count)
		verdict := "ok"
		if avg > 1.2 {
			verdict = "EXCEEDED"
		}
		fmt.Printf("%-4d %-10s %-12.4f %-12d %s\n", k, net.Name, avg, maxD, verdict)
	}
	fmt.Println("paper: average dilation bounded by 1.2 for arbitrarily large binomial tree and mesh")
}

// runC2: group generation scaling.
func runC2() {
	fmt.Printf("%-8s %-14s %-10s\n", "|X|", "generate time", "t/|X|^2 (ns)")
	var base float64
	for _, n := range []int{64, 128, 256, 512, 1024} {
		gens := circulantGenerators(n)
		start := time.Now()
		g, ok := group.Generate(gens, n)
		el := time.Since(start)
		if !ok || g.Order() != n {
			must(fmt.Errorf("generation failed for n=%d", n))
		}
		norm := float64(el.Nanoseconds()) / float64(n*n)
		if base == 0 {
			base = norm
		}
		fmt.Printf("%-8d %-14s %-10.2f\n", n, el.Round(time.Microsecond), norm)
	}
	fmt.Println("paper: computing the cycle notation of all elements dominates -> O(|X|^2);")
	fmt.Println("       the normalized column should stay roughly flat")
}

func circulantGenerators(n int) []perm.Perm {
	mk := func(shift int) perm.Perm {
		img := make([]int, n)
		for i := range img {
			img[i] = (i + shift) % n
		}
		p, _ := perm.FromImage(img)
		return p
	}
	return []perm.Perm{mk(1), mk(2), mk(n / 2)}
}

// runC3: contraction quality across random graphs.
func runC3() {
	fmt.Printf("%-6s %-6s %-12s %-12s %-12s\n", "tasks", "procs", "MWM IPC", "greedy IPC", "random IPC")
	for _, tc := range []struct{ n, p int }{{16, 4}, {24, 6}, {32, 8}, {48, 8}} {
		var mwm, gre, rnd float64
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			g := workload.RandomTaskGraph(tc.n, 0.3, 20, int64(trial*100+tc.n))
			b := 2 * ((tc.n + 2*tc.p - 1) / (2 * tc.p))
			part, err := contract.MWMContract(g, contract.Options{Processors: tc.p, MaxTasksPerProc: b})
			must(err)
			mwm += g.EdgeCut(part)
			gp, err := contract.GreedyOnly(g, tc.p, b)
			must(err)
			gre += g.EdgeCut(gp)
			rnd += g.EdgeCut(contract.Random(g, tc.p, int64(trial)))
		}
		fmt.Printf("%-6d %-6d %-12.1f %-12.1f %-12.1f\n",
			tc.n, tc.p, mwm/trials, gre/trials, rnd/trials)
	}
	fmt.Println("paper: MWM-Contract optimal for V <= 2P, near-optimal beyond; expect MWM <= greedy << random")
}

// runC4: routing contention across workloads, MM-Route vs oblivious.
func runC4() {
	fmt.Printf("%-12s %-14s %-10s %-10s %-10s %-12s %-12s\n",
		"workload", "network", "MM-Route", "e-cube", "random", "sim(MM)", "sim(ecube)")
	cases := []struct {
		name      string
		overrides map[string]int
		net       *topology.Network
	}{
		{"nbody", map[string]int{"n": 15, "s": 1}, topology.Hypercube(3)},
		{"nbody", map[string]int{"n": 31, "s": 1}, topology.Hypercube(4)},
		{"fft16", nil, topology.Hypercube(4)},
		{"voting", map[string]int{"n": 16}, topology.Hypercube(4)},
	}
	for _, tc := range cases {
		w, err := workload.ByName(tc.name)
		must(err)
		c, err := w.Compile(tc.overrides)
		must(err)
		res, err := core.Map(core.Request{Compiled: c, Net: tc.net})
		must(err)
		mmWorst := 0
		for _, st := range res.RouteStats {
			if st.MaxContention > mmWorst {
				mmWorst = st.MaxContention
			}
		}
		simMM, err := sim.Makespan(res.Mapping, c.Phases, sim.Config{}, 1<<20)
		must(err)
		// Re-route the same contraction+embedding obliviously.
		ecWorst, rdWorst := reRouteWorst(res.Mapping, "ecube"), reRouteWorst(res.Mapping, "random")
		must(route.RouteAllBaseline(res.Mapping, "ecube", 1))
		simEC, err := sim.Makespan(res.Mapping, c.Phases, sim.Config{}, 1<<20)
		must(err)
		fmt.Printf("%-12s %-14s %-10d %-10d %-10d %-12.0f %-12.0f\n",
			tc.name, tc.net.Name, mmWorst, ecWorst, rdWorst, simMM, simEC)
	}
	fmt.Println("paper: phase-aware matching evenly distributes edges over links (no numbers given);")
	fmt.Println("       expect MM-Route <= e-cube <= random on worst-phase contention")
}

func reRouteWorst(m *mapping.Mapping, kind string) int {
	saved := m.Routes
	m.Routes = map[string][]topology.Route{}
	must(route.RouteAllBaseline(m, kind, 1))
	worst := 0
	for _, routes := range m.Routes {
		if c := route.MaxContention(m.Net, routes); c > worst {
			worst = c
		}
	}
	m.Routes = saved
	return worst
}

// runC5: description compactness.
func runC5() {
	fmt.Printf("%-12s %-22s %-10s %-14s %-8s\n", "workload", "instance", "descr (B)", "graph (elems)", "ratio")
	rows := []struct {
		name      string
		overrides map[string]int
	}{
		{"nbody", map[string]int{"n": 101, "s": 1}},
		{"nbody", map[string]int{"n": 1001, "s": 1}},
		{"jacobi", map[string]int{"n": 32}},
		{"matmul", map[string]int{"n": 32}},
		{"binomial", map[string]int{"k": 10}},
		{"annealing", map[string]int{"n": 512}},
	}
	for _, rw := range rows {
		w, err := workload.ByName(rw.name)
		must(err)
		c, err := w.Compile(rw.overrides)
		must(err)
		desc := c.Program.DescriptionSize()
		gsize := c.Graph.NumTasks + c.Graph.NumEdges()
		var kv []string
		for k, v := range rw.overrides {
			kv = append(kv, fmt.Sprintf("%s=%d", k, v))
		}
		sort.Strings(kv)
		fmt.Printf("%-12s %-22s %-10d %-14d %-8.1f\n",
			rw.name, strings.Join(kv, " "), desc, gsize, float64(gsize)/float64(desc))
	}
	fmt.Println("paper: LaRCS code is an order of magnitude smaller than the graph; ratio should exceed ~10x for large instances")
}

// runE1: synchrony sets for the multiplexed n-body mapping.
func runE1() {
	w, err := workload.ByName("nbody")
	must(err)
	c, err := w.Compile(map[string]int{"n": 15, "s": 1})
	must(err)
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Hypercube(3)})
	must(err)
	s, err := sched.Build(res.Mapping)
	must(err)
	fmt.Print(s.Render(res.Mapping))
	for _, ph := range []string{"ring", "chordal"} {
		a, err := s.Alignment(res.Mapping, ph)
		must(err)
		fmt.Printf("phase %-8s synchrony alignment %.2f\n", ph, a)
	}
	fmt.Println("paper: proposes task synchrony sets + path-expression directives (Sec 6); no numbers")
}

// runE2: literal gather vs synthesized combining tree.
func runE2() {
	g := graph.New("gather", 16)
	p := g.AddCommPhase("collect")
	for i := 1; i < 16; i++ {
		g.AddEdge(p, i, 0, 1)
	}
	res, err := core.MapGraph(g, topology.Hypercube(4), core.ClassArbitrary)
	must(err)
	cmp, err := aggregate.Replace(res.Mapping, "collect")
	must(err)
	fmt.Printf("literal routing : max link load %d, total hops %d\n", cmp.LiteralMaxLoad, cmp.LiteralHops)
	fmt.Printf("combining tree  : max link load %d, total hops %d, depth %d\n",
		cmp.TreeMaxLoad, cmp.TreeHops, cmp.Tree.Depth)
	fmt.Println("paper: any spanning tree suffices for aggregation; avoid overspecified topologies (Sec 6)")
}

// runE3: binary-tree spawning with incremental placement.
func runE3() {
	b, err := spawn.NewBinaryTree(5)
	must(err)
	im, err := spawn.NewIncrementalMapping(b, topology.Hypercube(4))
	must(err)
	fmt.Printf("%-5s %-7s %-9s %-18s\n", "gen", "tasks", "max load", "avg parent dist")
	fmt.Printf("%-5d %-7d %-9d %-18s\n", 0, len(im.Proc), im.MaxLoad(), "-")
	for im.Step() {
		fmt.Printf("%-5d %-7d %-9d %-18.2f\n", im.Generation(), len(im.Proc), im.MaxLoad(), im.AvgParentDistance())
	}
	fmt.Println("paper: spawning pattern known a priori (full binary tree); placed tasks never migrate (Sec 6)")
}
