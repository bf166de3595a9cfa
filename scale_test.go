package oregami

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"oregami/internal/check"
	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/mapping"
	"oregami/internal/multilevel"
	"oregami/internal/topology"
)

// TestScaleNBody maps a 4095-body problem onto a 256-processor
// hypercube: LaRCS expansion, MWM-Contract over 4095 tasks, NN-Embed,
// MM-Route, metrics, and one outer simulation step all have to complete
// in reasonable time. Guarded by -short.
func TestScaleNBody(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	comp, err := CompileWorkload("nbody", map[string]int{"n": 4095, "s": 1})
	if err != nil {
		t.Fatal(err)
	}
	if comp.NumTasks() != 4095 {
		t.Fatalf("tasks = %d", comp.NumTasks())
	}
	net, err := NewNetwork("hypercube", 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := comp.Map(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	tpp := m.TasksPerProcessor()
	for p, n := range tpp {
		if n > 16 {
			t.Errorf("processor %d has %d tasks (B=16)", p, n)
		}
	}
	rep, err := m.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalIPC <= 0 || rep.TotalIPC > rep.TotalVolume {
		t.Errorf("IPC %g of %g", rep.TotalIPC, rep.TotalVolume)
	}
}

// TestScaleJacobiFold folds a 64x64 Jacobi grid onto a 8x8 mesh via the
// canned quotient path.
func TestScaleJacobiFold(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	comp, err := CompileWorkload("jacobi", map[string]int{"n": 64, "iters": 1})
	if err != nil {
		t.Fatal(err)
	}
	net, _ := NewNetwork("mesh", 8, 8)
	m, err := comp.Map(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Class() != "canned" {
		t.Errorf("class = %s (trail %v)", m.Class(), m.Trail())
	}
	for p, n := range m.TasksPerProcessor() {
		if n != 64 {
			t.Errorf("processor %d has %d tasks, want 64", p, n)
		}
	}
	total, err := m.Simulate(SimConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Errorf("makespan = %g", total)
	}
}

// TestScaleBinomialMesh embeds B_16 (65536 nodes) into the 256x256 mesh
// via the paper's construction and re-checks the 1.2 average-dilation
// bound at scale.
func TestScaleBinomialMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	comp, err := CompileWorkload("binomial", map[string]int{"k": 16})
	if err != nil {
		t.Fatal(err)
	}
	net, _ := NewNetwork("mesh", 256, 256)
	m, err := comp.Map(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, lm := range rep.Links {
		if lm.AvgDilation > 1.2 {
			t.Errorf("phase %s avg dilation %.4f exceeds 1.2", lm.Phase, lm.AvgDilation)
		}
	}
}

// scaleRow is one stencil size the scale gates map onto the 512-PE
// 4x4x4x8 hierarchy, with its ceilings. The allocs/op and bytes/op
// ceilings are 10% over the values last recorded for the row; the
// quality ceilings (TotalIPC and the most tasks on one processor) are
// the values last measured, so a change that trades mapping quality for
// speed fails here instead of passing unseen.
type scaleRow struct {
	name       string
	r, c       int
	allocs     float64
	bytes      float64
	ipc        float64
	maxPerProc int
}

// scaleGate maps each row's gen.Grid2D stencil onto the 512-PE
// hierarchy with mapFn, holds the result to the internal/check oracle
// and the row's ceilings, logs wall time and load imbalance, and hands
// the mapping to extra, if non-nil, for mapper-specific assertions.
// The mapping is measured the way testing.AllocsPerRun(1, ...) measures
// it, at GOMAXPROCS 1 after one warm-up run (which also builds the
// cached CSR), reading the bytes beside the allocations: ten runs would
// cost ~11 s at 1e6 tasks. It skips where the allocation gates do — in
// -short mode and under the race detector, where the instrumented
// million-task map would also dominate `make race`; `make alloc` runs
// it.
func scaleGate(t *testing.T, rows []scaleRow,
	mapFn func(*graph.TaskGraph, *topology.Network, multilevel.Options) (*mapping.Mapping, *multilevel.Stats, error),
	extra func(*testing.T, int, *topology.Network, *mapping.Mapping, *multilevel.Stats)) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			skipAllocGate(t)
			g := gen.Grid2D(row.r, row.c)
			net := topology.Hierarchy(4, 4, 4, 8)
			var (
				m    *mapping.Mapping
				st   *multilevel.Stats
				err  error
				wall time.Duration
			)
			run := func() {
				start := time.Now()
				m, st, err = mapFn(g, net, multilevel.Options{})
				wall = time.Since(start)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			run()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs - before.Mallocs)
			bytes := float64(after.TotalAlloc - before.TotalAlloc)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if vs := check.VerifyMapping(g, net, m); len(vs) > 0 {
				t.Fatalf("oracle found %d violations, first: %v", len(vs), vs[0])
			}
			ipc, maxPerProc := m.TotalIPC(), slices.Max(m.TasksPerProc())
			imbalance := float64(maxPerProc) * float64(net.NumLive()) / float64(g.NumTasks)
			t.Logf("%v wall, %.0f allocs/op (ceiling %.0f), %.0f bytes/op (ceiling %.0f), TotalIPC %.0f (ceiling %.0f), max %d tasks/proc (ceiling %d), imbalance %.3f",
				wall.Round(time.Millisecond), allocs, row.allocs, bytes, row.bytes, ipc, row.ipc, maxPerProc, row.maxPerProc, imbalance)
			if allocs > row.allocs {
				t.Errorf("allocates %.0f times per op, budget is %.0f", allocs, row.allocs)
			}
			if bytes > row.bytes {
				t.Errorf("allocates %.0f bytes per op, budget is %.0f", bytes, row.bytes)
			}
			if ipc > row.ipc {
				t.Errorf("TotalIPC %.0f exceeds its ceiling %.0f", ipc, row.ipc)
			}
			if maxPerProc > row.maxPerProc {
				t.Errorf("a processor holds %d tasks, ceiling %d", maxPerProc, row.maxPerProc)
			}
			if extra != nil {
				extra(t, g.NumTasks, net, m, st)
			}
		})
	}
}

// TestScaleMultilevelMillion is the headline case for docs/MULTILEVEL.md:
// 1e5- and million-task stencils coarsened, mapped, and uncoarsened onto
// the 512-PE 4x4x4x8 hierarchy, with the result held to the
// internal/check oracle and to allocation and quality ceilings. The
// bytes ceilings are 10% over the measured 55,535,328 and 118,446,232
// bytes/op.
func TestScaleMultilevelMillion(t *testing.T) {
	scaleGate(t, []scaleRow{
		{"n=100000", 250, 400, 99_129, 61_088_861, 31_350, 256},
		{"n=1000000", 1000, 1000, 25_049, 130_290_855, 111_065, 2_048},
	}, multilevel.Map, func(t *testing.T, tasks int, net *topology.Network, m *mapping.Mapping, st *multilevel.Stats) {
		if st.Levels < 2 {
			t.Errorf("levels = %d, want a real hierarchy", st.Levels)
		}
		if st.CoarsestTasks >= tasks/10 {
			t.Errorf("coarsest level still has %d vertices", st.CoarsestTasks)
		}
		if st.Clusters > net.N {
			t.Errorf("%d clusters exceed %d processors", st.Clusters, net.N)
		}
		for cl, p := range m.Place {
			if p < 0 || p >= net.N {
				t.Fatalf("cluster %d placed on processor %d of %d", cl, p, net.N)
			}
		}
	})
}

// TestScaleBisectMillion runs the recursive-bisection baseline over the
// same workloads: it must stay oracle-clean, place every cluster on a
// distinct live processor, and stay under its own ceilings. The bytes
// ceilings are 10% over the measured 7,385,272 and 73,526,688 bytes/op.
func TestScaleBisectMillion(t *testing.T) {
	scaleGate(t, []scaleRow{
		{"n=100000", 250, 400, 18_290, 8_123_799, 47_663, 196},
		{"n=1000000", 1000, 1000, 65_724, 80_879_357, 152_093, 1_954},
	}, multilevel.BisectMap, nil)
}
