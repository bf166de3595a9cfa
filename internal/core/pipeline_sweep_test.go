package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/larcs"
	"oregami/internal/metrics"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

var updatePipelineSweep = flag.Bool("update-pipeline-sweep", false, "rewrite testdata/pipeline_sweep.golden")

// sweepLarger names, per bundled workload, one binding larger than its
// default; workloads without one run at their defaults only.
var sweepLarger = map[string]map[string]int{
	"nbody": {"n": 31}, "jacobi": {"n": 16}, "sor": {"n": 16}, "matmul": {"n": 8},
	"fftn": {"k": 6}, "binomial": {"k": 6}, "annealing": {"n": 32},
	"systolicmm": {"n": 8}, "fir": {"n": 32}, "topsort": {"n": 32}, "voting": {"n": 32},
}

// sweepNets are the targets every sweep program is mapped onto, each
// pristine and as one seeded gen.Faults view.
var sweepNets = []string{"hypercube:4", "mesh:4,4", "torus:4,4", "hier:2,2,4"}

// sweepClasses are the dispatcher settings each (program, net) pair
// runs under; "refine" is auto with Request.Refine set.
var sweepClasses = []string{"auto", "arbitrary", "refine", "multilevel", "recursive-bisection"}

type pipelineCase struct {
	name  string
	c     *larcs.Compiled
	net   *topology.Network
	class string
}

// pipelineSweep lists the sweep: every bundled workload at its default
// bindings and at its larger binding, plus seeded gen.TaskGraph
// programs, on every sweep net (pristine and faulted) under every
// class; under -short the jacobi n=100 multilevel case onto
// hier:4,4,4,8 (the ml-stencil request) is left out.
func pipelineSweep(t *testing.T) []pipelineCase {
	t.Helper()
	type program struct {
		label string
		c     *larcs.Compiled
	}
	var programs []program
	for _, w := range workload.All() {
		c, err := w.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{w.Name, c})
		if over, ok := sweepLarger[w.Name]; ok {
			c, err := w.Compile(over)
			if err != nil {
				t.Fatal(err)
			}
			programs = append(programs, program{fmt.Sprintf("%s %v", w.Name, over), c})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.TaskGraph(gen.Rand(seed), gen.GraphSize{Tasks: 24 + 8*int(seed), Phases: 3, Density: 0.2, MaxWeight: 6})
		programs = append(programs, program{fmt.Sprintf("gen seed=%d", seed), compiledGraph(g)})
	}
	var nets []*topology.Network
	for i, spec := range sweepNets {
		net, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		faulted, _, _ := gen.Faults(gen.Rand(int64(100+i)), net, 2, 3)
		nets = append(nets, net, faulted)
	}
	var cases []pipelineCase
	for _, p := range programs {
		for _, net := range nets {
			for _, class := range sweepClasses {
				cases = append(cases, pipelineCase{fmt.Sprintf("%s @ %s %s", p.label, net.Name, class), p.c, net, class})
			}
		}
	}
	if !testing.Short() && !raceEnabled {
		w, err := workload.ByName("jacobi")
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.Compile(map[string]int{"n": 100})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, pipelineCase{"jacobi map[n:100] @ hier(4x4x4x8) multilevel", c, topology.Hierarchy(4, 4, 4, 8), "multilevel"})
	}
	return cases
}

func compiledGraph(g *graph.TaskGraph) *larcs.Compiled {
	return &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}
}

// runPipelineCase maps one sweep case and renders what the golden
// records: the class that answered, the mapping's fingerprint hash,
// TotalIPC, and the largest per-phase contention and dilation, or the
// error text.
func runPipelineCase(c pipelineCase) string {
	req := core.Request{Compiled: c.c, Net: c.net, Parallelism: 1}
	switch c.class {
	case "refine":
		req.Refine = true
	case "auto":
	default:
		req.Force = core.Class(c.class)
	}
	res, err := core.Map(req)
	if err != nil {
		return "error: " + err.Error()
	}
	rep, err := metrics.Compute(res.Mapping)
	if err != nil {
		return "metrics error: " + err.Error()
	}
	cont, dil := 0, 0
	for _, lm := range rep.Links {
		cont = max(cont, lm.MaxContention)
		dil = max(dil, lm.MaxDilation)
	}
	return fmt.Sprintf("%s %s ipc=%g cont=%d dil=%d", res.Class, check.FingerprintHash(res.Mapping), rep.TotalIPC, cont, dil)
}

// TestPipelineSweepGolden pins the whole pipeline's output — the
// answering class, the mapping fingerprint and its quality numbers —
// on the sweep to testdata/pipeline_sweep.golden. It is the check that
// a refactor or a speed-up leaves every mapping bit-identical. Under
// -short and the race detector the heavy jacobi n=100 case is skipped
// and the remaining lines are compared as a prefix. Regenerate with
// -update-pipeline-sweep only for a deliberate change of mapping
// output, and name the changed lines when doing so.
func TestPipelineSweepGolden(t *testing.T) {
	cases := pipelineSweep(t)
	var b strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&b, "%s\t%s\n", c.name, runPipelineCase(c))
	}
	path := filepath.Join("testdata", "pipeline_sweep.golden")
	if *updatePipelineSweep {
		if testing.Short() || raceEnabled {
			t.Fatal("-update-pipeline-sweep needs the full sweep: drop -short and -race")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d cases", path, len(cases))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	full := !testing.Short() && !raceEnabled
	if len(gotLines) > len(wantLines) || (full && len(gotLines) != len(wantLines)) {
		t.Fatalf("sweep has %d cases, golden has %d", len(gotLines), len(wantLines))
	}
	for i, got := range gotLines {
		if got != wantLines[i] {
			t.Errorf("golden line %d:\n  got  %s\n  want %s", i+1, got, wantLines[i])
		}
	}
}
