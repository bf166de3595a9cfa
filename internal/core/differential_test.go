package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/larcs"
	"oregami/internal/topology"
)

// mapOnce runs the full pipeline with the oracle armed. A typed
// *PipelineError is an acceptable outcome on hostile instances (e.g. too
// few live processors); anything else fails the test.
func mapOnce(t *testing.T, g *graph.TaskGraph, net *topology.Network) *core.Result {
	t.Helper()
	comp := &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}
	res, err := core.Map(core.Request{Compiled: comp, Net: net, Check: true})
	if err != nil {
		var pe *core.PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("pipeline failed with an untyped error: %v", err)
		}
		var ve *check.ViolationError
		if errors.As(pe.Err, &ve) {
			t.Fatalf("pipeline produced a mapping the oracle rejects:\n%s", check.Render(ve.Violations))
		}
		return nil
	}
	return res
}

// TestPipelineOracleOnRandomInstances maps generated task graphs onto
// generated healthy topologies and requires zero oracle violations,
// cross-checking the shipped METRICS report by independent
// recomputation.
func TestPipelineOracleOnRandomInstances(t *testing.T) {
	gen.ForEachSeed(t, 40, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, gen.DefaultSize(r))
		net := gen.Network(r)
		res := mapOnce(t, g, net)
		if res == nil {
			t.Skip("pipeline reported a typed infeasibility")
		}
		if vs := check.Run(g, net, res.Mapping, 1); len(vs) > 0 {
			t.Fatalf("oracle violations on accepted mapping:\n%s", check.Render(vs))
		}
	})
}

// TestPipelineOracleUnderFaultInjection repeats the property on degraded
// machines: random processor and link failures (the live part stays
// connected), where the mapping must use only live hardware — the oracle
// checks liveness per walked link.
func TestPipelineOracleUnderFaultInjection(t *testing.T) {
	gen.ForEachSeed(t, 40, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, gen.DefaultSize(r))
		masked, procs, links := gen.Faults(r, gen.Network(r), 2, 2)
		res := mapOnce(t, g, masked)
		if res == nil {
			t.Skipf("typed infeasibility with %d procs / %d links failed", len(procs), len(links))
		}
		if vs := check.Run(g, masked, res.Mapping, 1); len(vs) > 0 {
			t.Fatalf("oracle violations on degraded machine (failed procs %v, links %v):\n%s",
				procs, links, check.Render(vs))
		}
	})
}

// TestPipelineIsDeterministic runs every random instance through the
// pipeline twice and requires byte-identical mappings — partition,
// placement, and every route — via check.Fingerprint. Any map-iteration
// order leaking into results shows up here.
func TestPipelineIsDeterministic(t *testing.T) {
	gen.ForEachSeed(t, 40, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, gen.DefaultSize(r))
		masked, _, _ := gen.Faults(r, gen.Network(r), 1, 1)
		first := mapOnce(t, g, masked)
		second := mapOnce(t, g, masked)
		if (first == nil) != (second == nil) {
			t.Fatalf("pipeline feasibility is nondeterministic: first=%v second=%v", first != nil, second != nil)
		}
		if first == nil {
			t.Skip("typed infeasibility")
		}
		fp1 := check.Fingerprint(first.Mapping)
		fp2 := check.Fingerprint(second.Mapping)
		if fp1 != fp2 {
			t.Fatalf("two runs produced different mappings\nfirst:\n%s\nsecond:\n%s", fp1, fp2)
		}
	})
}
