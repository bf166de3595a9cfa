package metrics_test

import (
	"reflect"
	"strings"
	"testing"

	"oregami/internal/core"
	"oregami/internal/mapping"
	"oregami/internal/metrics"
	"oregami/internal/route"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

func mappedNBody(t *testing.T) *mapping.Mapping {
	t.Helper()
	w, _ := workload.ByName("nbody")
	c, err := w.Compile(map[string]int{"n": 15, "s": 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Hypercube(3)})
	if err != nil {
		t.Fatal(err)
	}
	return res.Mapping
}

func TestComputeNBody(t *testing.T) {
	m := mappedNBody(t)
	r, err := metrics.Compute(m)
	if err != nil {
		t.Fatal(err)
	}
	// 15 tasks on 8 procs: seven procs host 2 tasks, one hosts 1.
	twos, ones := 0, 0
	for _, n := range r.Load.TasksPerProc {
		switch n {
		case 2:
			twos++
		case 1:
			ones++
		default:
			t.Errorf("unexpected tasks/proc %d", n)
		}
	}
	if twos != 7 || ones != 1 {
		t.Errorf("task distribution: %v", r.Load.TasksPerProc)
	}
	if r.Load.Imbalance < 1 {
		t.Errorf("imbalance %g < 1", r.Load.Imbalance)
	}
	if len(r.Links) != 2 {
		t.Fatalf("links for %d phases", len(r.Links))
	}
	for _, lm := range r.Links {
		if lm.MaxDilation < 1 || lm.AvgDilation < 1 {
			t.Errorf("phase %s dilation %g/%d", lm.Phase, lm.AvgDilation, lm.MaxDilation)
		}
	}
	if r.TotalIPC <= 0 || r.TotalIPC > r.TotalVolume {
		t.Errorf("IPC %g vs volume %g", r.TotalIPC, r.TotalVolume)
	}
}

func TestComputeRequiresEmbedding(t *testing.T) {
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(nil)
	m := mapping.New(c.Graph, topology.Hypercube(3))
	if _, err := metrics.Compute(m); err == nil {
		t.Error("unembedded mapping accepted")
	}
}

func TestReassignTaskMovesAndInvalidates(t *testing.T) {
	m := mappedNBody(t)
	task := 0
	oldProc := m.ProcOf(task)
	newProc := (oldProc + 1) % m.Net.N
	if err := metrics.ReassignTask(m, task, newProc); err != nil {
		t.Fatal(err)
	}
	if m.ProcOf(task) != newProc {
		t.Errorf("task still on %d", m.ProcOf(task))
	}
	if len(m.Routes) != 0 {
		t.Error("routes not invalidated")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Re-route and recompute, mirroring the METRICS loop.
	if _, err := route.RouteAll(m, route.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.Compute(m); err != nil {
		t.Fatal(err)
	}
}

func TestReassignTaskToEmptyProcessor(t *testing.T) {
	// Move every task off a processor, then move one back: the empty
	// processor must get a fresh cluster.
	m := mappedNBody(t)
	// Find a processor with 1 task (exists for 15-on-8).
	var lone, loneProc = -1, -1
	counts := m.TasksPerProc()
	for p, n := range counts {
		if n == 1 {
			loneProc = p
		}
	}
	for task := 0; task < m.Graph.NumTasks; task++ {
		if m.ProcOf(task) == loneProc {
			lone = task
		}
	}
	other := (loneProc + 1) % m.Net.N
	if err := metrics.ReassignTask(m, lone, other); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("after emptying: %v", err)
	}
	if err := metrics.ReassignTask(m, lone, loneProc); err != nil {
		t.Fatal(err)
	}
	if m.ProcOf(lone) != loneProc {
		t.Error("task not moved back")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReassignErrors(t *testing.T) {
	m := mappedNBody(t)
	if err := metrics.ReassignTask(m, -1, 0); err == nil {
		t.Error("bad task accepted")
	}
	if err := metrics.ReassignTask(m, 0, 99); err == nil {
		t.Error("bad proc accepted")
	}
	// No-op move.
	if err := metrics.ReassignTask(m, 0, m.ProcOf(0)); err != nil {
		t.Error(err)
	}
}

func TestReRoute(t *testing.T) {
	m := mappedNBody(t)
	p := m.Graph.CommPhaseByName("ring")
	// Find an interprocessor edge.
	idx := -1
	for i, e := range p.Edges {
		if m.ProcOf(e.From) != m.ProcOf(e.To) {
			idx = i
			break
		}
	}
	if idx == -1 {
		t.Skip("no interprocessor ring edge")
	}
	e := p.Edges[idx]
	src, dst := m.ProcOf(e.From), m.ProcOf(e.To)
	// Any alternative shortest route.
	alt := m.Net.ShortestRoutes(src, dst, 0)
	if err := metrics.ReRoute(m, "ring", idx, alt[len(alt)-1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Invalid route rejected.
	if err := metrics.ReRoute(m, "ring", idx, topology.Route{0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bogus route accepted")
	}
	if err := metrics.ReRoute(m, "nosuch", 0, nil); err == nil {
		t.Error("unknown phase accepted")
	}
	if err := metrics.ReRoute(m, "ring", 999, nil); err == nil {
		t.Error("bad edge index accepted")
	}
}

func TestRenderContainsEverything(t *testing.T) {
	m := mappedNBody(t)
	r, err := metrics.Compute(m)
	if err != nil {
		t.Fatal(err)
	}
	out := metrics.Render(m, r)
	for _, want := range []string{"nbody", "hypercube(3)", "load", "phase", "total IPC", "chordal"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRenderMeshLayout(t *testing.T) {
	w, _ := workload.ByName("jacobi")
	c, _ := w.Compile(map[string]int{"n": 4})
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Mesh(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	out := metrics.RenderLayout(res.Mapping)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("mesh layout has %d rows, want 4:\n%s", len(lines), out)
	}
}

func TestDOTOutput(t *testing.T) {
	m := mappedNBody(t)
	dot := metrics.DOT(m)
	for _, want := range []string{"digraph", "subgraph cluster_p0", "t0 ->", "style=dashed", "style=solid", "chordal"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

// TestMoveTaskRollsBackOnRouteFailure moves a task on a machine split in
// two (nbody n=6 on ring(6) with processors 1 and 4 masked behind the
// mapping's back): the reroute cannot succeed, so MoveTask must fail and
// leave Part, Place and Routes as they were.
func TestMoveTaskRollsBackOnRouteFailure(t *testing.T) {
	w, _ := workload.ByName("nbody")
	c, err := w.Compile(map[string]int{"n": 6, "s": 1})
	if err != nil {
		t.Fatal(err)
	}
	net := topology.Ring(6)
	res, err := core.Map(core.Request{Compiled: c, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mapping
	if m.Net, err = net.Masked([]int{1, 4}, nil); err != nil {
		t.Fatal(err)
	}
	before := m.Clone()
	target := -1
	for p := 0; p < 6 && target == -1; p++ {
		if m.Net.Alive(p) && m.ProcOf(0) != p {
			target = p
		}
	}
	if err := metrics.ReassignTask(m.Clone(), 0, target); err != nil {
		t.Fatalf("the move itself must be legal, only its reroute may fail: %v", err)
	}
	if err := metrics.MoveTask(m, 0, target); err == nil {
		t.Fatalf("move of task 0 to processor %d on a split machine accepted", target)
	}
	if !reflect.DeepEqual(m.Part, before.Part) || !reflect.DeepEqual(m.Place, before.Place) {
		t.Errorf("failed move changed the mapping: Part %v Place %v, want %v %v", m.Part, m.Place, before.Part, before.Place)
	}
	if !reflect.DeepEqual(m.Routes, before.Routes) {
		t.Errorf("failed move changed the routes")
	}
}
