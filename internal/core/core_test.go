package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"oregami/internal/graph"
	"oregami/internal/larcs"
	"oregami/internal/route"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

func mapWorkload(t *testing.T, name string, overrides map[string]int, net *topology.Network, force Class) *Result {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Compile(overrides)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(Request{Compiled: c, Net: net, Force: force})
	if err != nil {
		t.Fatalf("%s -> %s: %v", name, net.Name, err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("%s: invalid mapping: %v", name, err)
	}
	return res
}

func TestDispatchJacobiCanned(t *testing.T) {
	// Jacobi on a matching mesh: canned grid identity.
	res := mapWorkload(t, "jacobi", map[string]int{"n": 4}, topology.Mesh(4, 4), "")
	if res.Class != ClassCanned {
		t.Errorf("class = %s, want canned (trail: %v)", res.Class, res.Trail)
	}
	if res.Detection == nil || res.Detection.Family != "grid" {
		t.Errorf("detection = %v", res.Detection)
	}
	// A dilation-1 embedding means every route has length 1.
	for name, routes := range res.Mapping.Routes {
		for i, r := range routes {
			if len(r) > 1 {
				t.Errorf("phase %s edge %d: route length %d", name, i, len(r))
			}
		}
	}
}

func TestDispatchJacobiOnHypercube(t *testing.T) {
	res := mapWorkload(t, "jacobi", map[string]int{"n": 4}, topology.Hypercube(4), "")
	if res.Class != ClassCanned {
		t.Errorf("class = %s (trail %v)", res.Class, res.Trail)
	}
	if !strings.Contains(res.Mapping.Method, "gray2") {
		t.Errorf("method = %s, want gray2 grid embedding", res.Mapping.Method)
	}
}

func TestDispatchJacobiFolded(t *testing.T) {
	// 8x8 Jacobi on a 4x4 mesh: fold then identity embed.
	res := mapWorkload(t, "jacobi", map[string]int{"n": 8}, topology.Mesh(4, 4), "")
	if res.Class != ClassCanned {
		t.Fatalf("class = %s (trail %v)", res.Class, res.Trail)
	}
	tpp := res.Mapping.TasksPerProc()
	for p, n := range tpp {
		if n != 4 {
			t.Errorf("processor %d has %d tasks, want 4", p, n)
		}
	}
}

func TestDispatchBroadcastGroup(t *testing.T) {
	res := mapWorkload(t, "broadcast8", nil, topology.Hypercube(2), "")
	if res.Class != ClassGroup {
		t.Errorf("class = %s, want group-theoretic (trail %v)", res.Class, res.Trail)
	}
	if res.GroupInfo == nil || res.GroupInfo.FromGenerator != "comm3" {
		t.Errorf("group info = %+v", res.GroupInfo)
	}
}

func TestDispatchNBodyArbitrary(t *testing.T) {
	// 15 tasks on 8 processors: not nameable (chordal ring), not
	// node-symmetric contractible (15 % 8 != 0) -> MWM-Contract.
	res := mapWorkload(t, "nbody", map[string]int{"n": 15, "s": 1}, topology.Hypercube(3), "")
	if res.Class != ClassArbitrary {
		t.Errorf("class = %s, want arbitrary (trail %v)", res.Class, res.Trail)
	}
	tpp := res.Mapping.TasksPerProc()
	for p, n := range tpp {
		if n > 2 {
			t.Errorf("processor %d has %d tasks, want <= 2 (B)", p, n)
		}
	}
	if res.RouteStats["chordal"].MaxContention < 1 {
		t.Error("missing chordal route stats")
	}
}

func TestDispatchSystolicOnLinear(t *testing.T) {
	res := mapWorkload(t, "systolicmm", map[string]int{"n": 4}, topology.Linear(4), "")
	if res.Class != ClassSystolic {
		t.Fatalf("class = %s, want systolic (trail %v)", res.Class, res.Trail)
	}
	if res.Systolic == nil || res.Systolic.Latency != 7 {
		t.Errorf("systolic mapping = %+v", res.Systolic)
	}
	// 16 lattice points on 4 PEs.
	if res.Mapping.NumClusters() != 4 {
		t.Errorf("clusters = %d, want 4", res.Mapping.NumClusters())
	}
}

func TestDispatchForceSystolicRejectsModular(t *testing.T) {
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(nil)
	if _, err := Map(Request{Compiled: c, Net: topology.Linear(15), Force: ClassSystolic}); err == nil {
		t.Error("systolic accepted n-body's modular functions")
	}
}

func TestDispatchBinomialToMesh(t *testing.T) {
	res := mapWorkload(t, "binomial", map[string]int{"k": 4}, topology.Mesh(4, 4), "")
	if res.Class != ClassCanned || !strings.Contains(res.Mapping.Method, "binomial->mesh") {
		t.Errorf("class=%s method=%s", res.Class, res.Mapping.Method)
	}
}

func TestDispatchFFTToHypercube(t *testing.T) {
	res := mapWorkload(t, "fft16", nil, topology.Hypercube(4), "")
	if res.Class != ClassCanned || !strings.Contains(res.Mapping.Method, "hypercube->hypercube") {
		t.Errorf("class=%s method=%s (trail %v)", res.Class, res.Mapping.Method, res.Trail)
	}
	// Identity embedding of the butterfly stages: every exchange is one
	// hop, and the two directions of an exchange share the undirected
	// link, so per-phase contention is exactly 2.
	for name, st := range res.RouteStats {
		if st.MaxContention != 2 {
			t.Errorf("phase %s contention = %d, want 2", name, st.MaxContention)
		}
		if st.TotalHops != 16 {
			t.Errorf("phase %s hops = %d, want 16", name, st.TotalHops)
		}
	}
}

func TestDispatchForceOverride(t *testing.T) {
	// Force arbitrary on a canned-eligible workload.
	res := mapWorkload(t, "jacobi", map[string]int{"n": 4}, topology.Mesh(4, 4), ClassArbitrary)
	if res.Class != ClassArbitrary {
		t.Errorf("forced class ignored: %s", res.Class)
	}
}

func TestDispatchAnnealingRingCanned(t *testing.T) {
	// The annealing workload's collapsed graph is a plain ring.
	res := mapWorkload(t, "annealing", map[string]int{"n": 16}, topology.Hypercube(4), "")
	if res.Class != ClassCanned || !strings.Contains(res.Mapping.Method, "ring->hypercube") {
		t.Errorf("class=%s method=%s", res.Class, res.Mapping.Method)
	}
}

func TestDispatchTopSortLinear(t *testing.T) {
	res := mapWorkload(t, "topsort", map[string]int{"n": 8}, topology.Linear(8), "")
	if res.Class != ClassCanned {
		t.Errorf("class = %s (trail %v)", res.Class, res.Trail)
	}
}

func TestMapGraphConvenience(t *testing.T) {
	g := graph.New("adhoc", 6)
	p := g.AddCommPhase("c")
	for i := 0; i < 5; i++ {
		g.AddEdge(p, i, i+1, float64(i+1))
	}
	res, err := MapGraph(g, topology.Mesh(2, 3), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
	// A 6-node path is nameable (linear family) but has no canned
	// mapping into a 2x3 mesh; the dispatcher must still succeed.
	if res.Mapping == nil {
		t.Fatal("no mapping")
	}
}

func TestMapErrors(t *testing.T) {
	if _, err := Map(Request{}); err == nil {
		t.Error("nil request accepted")
	}
	g := graph.New("empty", 0)
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(nil)
	c2 := *c
	c2.Graph = g
	if _, err := Map(Request{Compiled: &c2, Net: topology.Ring(4)}); err == nil {
		t.Error("empty graph accepted")
	}
	// Map runs Validate first: every invalid option is a *FieldError
	// naming the field, whatever else is wrong with the request.
	for field, req := range map[string]Request{
		"Force":           {Compiled: c, Net: topology.Ring(4), Force: "quantum"},
		"Parallelism":     {Compiled: c, Net: topology.Ring(4), Parallelism: -1},
		"MaxTasksPerProc": {Compiled: c, Net: topology.Ring(4), MaxTasksPerProc: -5},
		"StageTimeout":    {StageTimeout: -time.Millisecond},
	} {
		_, err := Map(req)
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != field {
			t.Errorf("invalid %s: got %v, want *FieldError on %s", field, err, field)
		}
	}
}

func TestRouteOptionsPropagate(t *testing.T) {
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(map[string]int{"n": 15, "s": 1})
	res, err := Map(Request{Compiled: c, Net: topology.Hypercube(3), Route: route.Options{UseMaximum: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RouteStats) != 2 {
		t.Errorf("route stats = %v", res.RouteStats)
	}
}

func TestDispatchSystolic3DOnMesh(t *testing.T) {
	// A 3-D uniform recurrence projects onto a 2-D PE mesh.
	prog, err := larcs.Parse(`
algorithm mm3(n);
nodetype p 0..n-1, 0..n-1, 0..n-1;
comphase a { forall i in 0..n-1, j in 0..n-1, k in 0..n-2 : p(i,j,k) -> p(i,j,k+1); }
comphase b { forall i in 0..n-1, j in 0..n-2, k in 0..n-1 : p(i,j,k) -> p(i,j+1,k); }
comphase c { forall i in 0..n-2, j in 0..n-1, k in 0..n-1 : p(i,j,k) -> p(i+1,j,k); }
exphase mac;
phases (a || b || c; mac)^n;
`)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := prog.Compile(map[string]int{"n": 4}, larcs.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(Request{Compiled: comp, Net: topology.Mesh(4, 4), Force: ClassSystolic})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
	// 64 lattice points on 16 PEs: 4 per processor.
	for p, n := range res.Mapping.TasksPerProc() {
		if n != 4 {
			t.Errorf("PE %d holds %d points, want 4", p, n)
		}
	}
	if res.Systolic == nil || len(res.Systolic.PEExtent) != 2 {
		t.Errorf("systolic info = %+v", res.Systolic)
	}
}

func TestDispatchSystolicLinearPEsOnMesh(t *testing.T) {
	// systolicmm projects to a 1-D PE array, snaked onto a mesh.
	w, _ := workload.ByName("systolicmm")
	c, err := w.Compile(map[string]int{"n": 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(Request{Compiled: c, Net: topology.Mesh(2, 3), Force: ClassSystolic})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
	// 36 lattice points on 6 PEs.
	if res.Mapping.NumClusters() != 6 {
		t.Errorf("clusters = %d, want 6", res.Mapping.NumClusters())
	}
	// Consecutive PEs must sit on adjacent processors (snake layout).
	// PE i maps to some processor; cluster ids follow discovery order,
	// so check via the systolic placement directly: tasks (i, j) and
	// (i, j') share a PE; neighbors differ by one mesh hop.
}

func TestDispatchSystolicTooBig(t *testing.T) {
	// PE array larger than the target must fail over to another class.
	w, _ := workload.ByName("systolicmm")
	c, err := w.Compile(map[string]int{"n": 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(Request{Compiled: c, Net: topology.Linear(4), Force: ClassSystolic}); err == nil {
		t.Error("oversized PE array accepted")
	}
	// Auto mode falls through to a feasible class.
	res, err := Map(Request{Compiled: c, Net: topology.Linear(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class == ClassSystolic {
		t.Error("auto mode should not have chosen systolic")
	}
}
