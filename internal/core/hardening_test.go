package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"oregami/internal/graph"
	"oregami/internal/larcs"
	"oregami/internal/mapping"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// ringTaskGraph builds a bare n-task ring: one comm phase shifting to the
// right neighbor, one uniform exec phase.
func ringTaskGraph(n int) *graph.TaskGraph {
	g := graph.New(fmt.Sprintf("ring%d", n), n)
	p := g.AddCommPhase("shift")
	for i := 0; i < n; i++ {
		g.AddEdge(p, i, (i+1)%n, 1)
	}
	g.AddExecPhase("work", 1)
	return g
}

func compiled(g *graph.TaskGraph) *larcs.Compiled {
	return &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}
}

// countdownCtx is a context whose Err() starts returning context.Canceled
// after limit calls. Every cooperative cancellation point in the pipeline
// polls Err(), so this deterministically cancels "mid-flight" at the
// limit-th check without any timing dependence.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	limit int
}

func newCountdownCtx(limit int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), limit: limit}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

func wantPipelineError(t *testing.T, err error, stage string, cause error) *PipelineError {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error, got nil")
	}
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *PipelineError", err, err)
	}
	if stage != "" && pe.Stage != stage {
		t.Errorf("stage = %q, want %q (err: %v)", pe.Stage, stage, err)
	}
	if cause != nil && !errors.Is(err, cause) {
		t.Errorf("error %v does not wrap %v", err, cause)
	}
	return pe
}

func TestMapExpiredContextArbitrary(t *testing.T) {
	// A context already past its deadline must fail fast at dispatch with
	// a *PipelineError, never a panic.
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	res, err := Map(Request{
		Compiled: compiled(ringTaskGraph(32)),
		Net:      topology.Ring(4),
		Force:    ClassArbitrary,
		Ctx:      ctx,
	})
	if res != nil {
		t.Fatal("expired context produced a result")
	}
	wantPipelineError(t, err, "dispatch", context.DeadlineExceeded)
}

func TestMapExpiredContextCanned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Map(Request{
		Compiled: compiled(ringTaskGraph(8)),
		Net:      topology.Ring(8),
		Force:    ClassCanned,
		Ctx:      ctx,
	})
	if res != nil {
		t.Fatal("cancelled context produced a result")
	}
	wantPipelineError(t, err, "dispatch", context.Canceled)
}

func TestMapExpiredContextNoGoroutineLeak(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		_, err := Map(Request{
			Compiled: compiled(ringTaskGraph(32)),
			Net:      topology.Ring(4),
			Force:    ClassArbitrary,
			Ctx:      ctx,
		})
		if err == nil {
			t.Fatal("expired context mapped successfully")
		}
	}
	runtime.GC()
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Errorf("goroutines grew from %d to %d across 100 cancelled Maps", before, after)
	}
}

func TestMapCancelledMidContractionMWM(t *testing.T) {
	// The dispatch entry check passes (call 1), then contraction's first
	// cooperative check trips: the pipeline must return promptly with
	// context.Canceled wrapped in a *PipelineError naming the stage.
	ctx := newCountdownCtx(1)
	start := time.Now()
	res, err := Map(Request{
		Compiled: compiled(ringTaskGraph(64)),
		Net:      topology.Ring(4),
		Force:    ClassArbitrary,
		Ctx:      ctx,
	})
	if res != nil {
		t.Fatal("cancelled contraction produced a result")
	}
	wantPipelineError(t, err, string(ClassArbitrary), context.Canceled)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", d)
	}
}

// TestMapGroupLatticeWalkHonorsDeadline forces the group-theoretic
// class onto fftn k=8: 256 tasks under Z2^8, where 8 clusters need a
// subgroup of order 32 that no single phase generates. Walking the
// elementary abelian group's subgroup lattice takes seconds, so the
// request's deadline must stop the walk itself.
func TestMapGroupLatticeWalkHonorsDeadline(t *testing.T) {
	w, err := workload.ByName("fftn")
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Compile(map[string]int{"k": 8})
	if err != nil {
		t.Fatal(err)
	}
	const deadline, slack = 100 * time.Millisecond, 400 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := Map(Request{Compiled: c, Net: topology.Hypercube(3), Force: ClassGroup, Ctx: ctx})
	elapsed := time.Since(start)
	if res != nil {
		t.Fatal("expired lattice walk produced a result")
	}
	wantPipelineError(t, err, string(ClassGroup), context.DeadlineExceeded)
	if elapsed > deadline+slack {
		t.Errorf("Map returned after %v, want within %v of its %v deadline", elapsed, slack, deadline)
	}
}

func TestMapCancelledMidPipelineCanned(t *testing.T) {
	// Same countdown trick on the canned path: detection succeeds, the
	// post-detection check trips.
	ctx := newCountdownCtx(1)
	res, err := Map(Request{
		Compiled: compiled(ringTaskGraph(8)),
		Net:      topology.Ring(8),
		Force:    ClassCanned,
		Ctx:      ctx,
	})
	if res != nil {
		t.Fatal("cancelled canned pipeline produced a result")
	}
	wantPipelineError(t, err, string(ClassCanned), context.Canceled)
}

func TestMapPanicNamesStage(t *testing.T) {
	// A task graph with an out-of-range edge (assembled behind AddEdge's
	// back, as a hostile or corrupted producer would) makes the arbitrary
	// mapper index past its partition array. The panic must be contained
	// and converted into an error naming the stage.
	g := graph.New("hostile", 4)
	p := g.AddCommPhase("x")
	p.Edges = append(p.Edges, graph.Edge{From: 0, To: 99, Weight: 1})
	g.AddExecPhase("work", 1)
	res, err := Map(Request{
		Compiled: compiled(g),
		Net:      topology.Ring(8),
		Force:    ClassArbitrary,
	})
	if res != nil {
		t.Fatal("hostile graph produced a result")
	}
	pe := wantPipelineError(t, err, string(ClassArbitrary), nil)
	if !strings.Contains(pe.Err.Error(), "panic") {
		t.Errorf("stage error %v does not record the contained panic", pe.Err)
	}
}

func TestSafeStageContainsPanic(t *testing.T) {
	m, err := safeStage("route", func() (*mapping.Mapping, error) {
		panic("boom")
	})
	if m != nil {
		t.Error("panicking stage returned a mapping")
	}
	pe := wantPipelineError(t, err, "route", nil)
	if !strings.Contains(pe.Err.Error(), "boom") {
		t.Errorf("panic value lost: %v", pe.Err)
	}
}

func TestStageTimeoutDowngradesToGreedy(t *testing.T) {
	// A 1ns stage budget expires before MWM-Contract's first check while
	// the overall context stays live: the dispatcher must degrade to the
	// greedy-only contraction and still produce a valid mapping.
	res, err := Map(Request{
		Compiled:     compiled(ringTaskGraph(64)),
		Net:          topology.Ring(4),
		Force:        ClassArbitrary,
		StageTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("degraded pipeline failed outright: %v", err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("downgraded mapping invalid: %v", err)
	}
	found := false
	for _, line := range res.Trail {
		if strings.Contains(line, "downgrading to greedy contraction") {
			found = true
		}
	}
	if !found {
		t.Errorf("trail does not record the greedy downgrade: %v", res.Trail)
	}
	if !res.Degraded {
		t.Error("greedy downgrade not recorded in Result.Degraded")
	}
	full, err := Map(Request{
		Compiled: compiled(ringTaskGraph(64)),
		Net:      topology.Ring(4),
		Force:    ClassArbitrary,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded {
		t.Errorf("undegraded run reports Degraded; trail %v", full.Trail)
	}
}

func TestStageTimeoutDowngradesToStone(t *testing.T) {
	// With exactly two live processors the ladder bottoms out at Stone's
	// optimal two-processor assignment instead.
	res, err := Map(Request{
		Compiled:     compiled(ringTaskGraph(10)),
		Net:          topology.Linear(2),
		Force:        ClassArbitrary,
		StageTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("Stone fallback failed outright: %v", err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("Stone mapping invalid: %v", err)
	}
	found := false
	for _, line := range res.Trail {
		if strings.Contains(line, "downgrading to Stone") {
			found = true
		}
	}
	if !found {
		t.Errorf("trail does not record the Stone downgrade: %v", res.Trail)
	}
	if !res.Degraded {
		t.Error("Stone downgrade not recorded in Result.Degraded")
	}
}
