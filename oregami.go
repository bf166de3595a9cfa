// Package oregami is a Go reproduction of the OREGAMI mapping tools
// (Lo, Rajopadhye, Gupta, Keldsen, Mohamed, Telle: "OREGAMI: Software
// Tools for Mapping Parallel Computations to Parallel Architectures",
// University of Oregon, 1990): LaRCS, a description language for regular
// parallel computations; MAPPER, a library of contraction, embedding,
// and routing algorithms; and METRICS, mapping analysis with a
// modify-and-recompute loop.
//
// The typical flow is three calls:
//
//	comp, err := oregami.Compile(larcsSource, map[string]int{"n": 15, "s": 2})
//	net, err := oregami.NewNetwork("hypercube", 3)
//	m, err := comp.MapContext(ctx, net, &oregami.MapOptions{Parallelism: 0})
//
// after which m exposes the mapping, its metrics, an ASCII rendering,
// and a completion-time simulation. MapContext is the primary mapping
// entry point; Map is a convenience wrapper for callers without a
// context. Options are validated by MapOptions.Normalize — invalid
// combinations return a typed *OptionError rather than being silently
// clamped. See docs/API.md for the stability tier of every exported
// symbol.
package oregami

import (
	"context"
	"errors"
	"fmt"
	"time"

	"oregami/internal/aggregate"
	"oregami/internal/analysis"
	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/fault"
	"oregami/internal/graph"
	"oregami/internal/larcs"
	"oregami/internal/metrics"
	"oregami/internal/phase"
	"oregami/internal/route"
	"oregami/internal/sched"
	"oregami/internal/sim"
	"oregami/internal/spawn"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// Computation is a compiled LaRCS program: the expanded task graph plus
// the ground phase expression.
type Computation struct {
	compiled *larcs.Compiled
}

// Network is a processor interconnection topology. The stable surface
// is the accessor methods — Processors, Family, Instance, Shape,
// Neighbors, Alive, and friends; the exported struct fields exist for
// the internal packages and may be reorganized without notice (they are
// tier "internal" in docs/API.md).
type Network = topology.Network

// NewNetwork constructs a network by family name: ring(n), linear(n),
// mesh(r,c), torus(r,c), hypercube(d), cbtree(depth), binomial(k),
// butterfly(k), ccc(k), complete(n), star(n).
func NewNetwork(kind string, params ...int) (*Network, error) {
	return topology.ByName(kind, params...)
}

// Diagnostic is one finding of the LaRCS static analyzer: a position,
// severity ("warning" or "error"), stable machine-readable code, message,
// and an optional suggested fix. The stable surface is the methods —
// Location, IsError, String — plus the Code and Message fields; the
// remaining struct fields may be reorganized without notice.
type Diagnostic = analysis.Diag

// Vet runs the static analyzer over a LaRCS source program *without*
// parameter bindings: symbolic interval analysis of edge index
// expressions (out-of-bounds node references, division/modulo by zero,
// self-loops, empty ranges), phase-expression reachability (unreferenced
// phases, dead ^0 repetitions, unused nodetypes), and a counterexample
// search refuting false nodesymmetric claims. Diagnostics come back
// sorted by position; an empty slice means the program is clean.
func Vet(src string) []Diagnostic { return analysis.VetSource(src) }

// VetHasErrors reports whether any diagnostic is an error (as opposed
// to a warning). Programs with vet errors will fail to Compile or
// produce malformed graphs for every binding the analysis covered.
func VetHasErrors(diags []Diagnostic) bool { return analysis.HasErrors(diags) }

// RenderDiagnostics formats diagnostics one per line as
// "file:line:col: severity: message [code]".
func RenderDiagnostics(file string, diags []Diagnostic) string {
	return analysis.Render(file, diags)
}

// Compile parses a LaRCS source program and expands it for the given
// parameter/import bindings.
func Compile(src string, bindings map[string]int) (*Computation, error) {
	prog, err := larcs.Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := prog.Compile(bindings, larcs.Limits{})
	if err != nil {
		return nil, err
	}
	return &Computation{compiled: c}, nil
}

// CompileWorkload compiles one of the bundled example workloads (see
// Workloads) with optional parameter overrides.
func CompileWorkload(name string, overrides map[string]int) (*Computation, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	c, err := w.Compile(overrides)
	if err != nil {
		return nil, err
	}
	return &Computation{compiled: c}, nil
}

// Workloads lists the bundled example workload names with one-line
// descriptions. The returned map is a fresh copy on every call:
// mutating it cannot affect the workload registry or later calls.
func Workloads() map[string]string {
	out := make(map[string]string)
	for _, w := range workload.All() {
		out[w.Name] = w.About
	}
	return out
}

// NumTasks returns the number of tasks in the expanded task graph.
func (c *Computation) NumTasks() int { return c.compiled.Graph.NumTasks }

// NumEdges returns the number of communication edges over all phases.
func (c *Computation) NumEdges() int { return c.compiled.Graph.NumEdges() }

// Graph returns the underlying task graph (read-only use expected).
func (c *Computation) Graph() *graph.TaskGraph { return c.compiled.Graph }

// PhaseExpression renders the ground phase expression, or "".
func (c *Computation) PhaseExpression() string {
	if c.compiled.Phases == nil {
		return ""
	}
	return c.compiled.Phases.String()
}

// DescriptionSize returns the LaRCS description size in bytes (comments
// and whitespace stripped), the quantity behind the paper's compactness
// claim.
func (c *Computation) DescriptionSize() int {
	return c.compiled.Program.DescriptionSize()
}

// MapOptions tune the MAPPER dispatcher. The zero value is valid and
// maps with every default. Options are validated by Normalize (which
// Map and MapContext call for you): invalid values return a typed
// *OptionError instead of being silently clamped.
type MapOptions struct {
	// Force restricts the dispatcher to one algorithm class: "canned",
	// "systolic", "group-theoretic", "arbitrary", "multilevel", or
	// "recursive-bisection". Empty or "auto" tries the first four in
	// order; the last two — the scale mappers of internal/multilevel —
	// only run when forced (they exist for task graphs far beyond what
	// the exact pipeline contracts in one round, up to n=1e6; see
	// docs/MULTILEVEL.md).
	Force string
	// MaxTasksPerProc is MWM-Contract's load-balance bound B (0 =
	// derive from task and processor counts).
	MaxTasksPerProc int
	// MaximumMatchingRouter swaps MM-Route's greedy maximal matching
	// for a maximum matching per round.
	MaximumMatchingRouter bool
	// Refine applies local-search refinement (Kernighan-Lin swaps after
	// contraction, pairwise exchange after embedding) on the arbitrary
	// path.
	Refine bool
	// Faults masks the named hardware as failed before dispatch: the
	// pipeline only places tasks on and routes over the live machine.
	Faults *FaultModel
	// Timeout bounds the whole pipeline: when it expires, Map returns a
	// *PipelineError wrapping context.DeadlineExceeded. Zero means no
	// bound.
	Timeout time.Duration
	// StageTimeout bounds only the expensive MWM contraction stage; on
	// expiry the dispatcher degrades to the cheaper Stone/greedy
	// contraction (recorded in Trail) instead of failing. Zero disables.
	StageTimeout time.Duration
	// Check runs the post-condition oracle on the finished mapping:
	// partition coverage, embedding injectivity into live processors,
	// route walkability over live links, per-phase conflict freedom, and
	// an independent recomputation of the METRICS values. Violations
	// fail Map with a *PipelineError (stage "check") wrapping a
	// *ViolationError.
	Check bool
	// Parallelism bounds the worker count of MAPPER's parallel hot
	// paths: MWM-Contract candidate-gain scoring, MM-Route's per-phase
	// fan-out, and the check stage's METRICS recomputation. Zero means
	// "auto" (one worker per available CPU); 1 forces the sequential
	// path; negative values are rejected by Normalize. The mapping
	// produced is bit-identical at every setting — parallelism only
	// changes wall-clock time, never the result (see docs/PARALLEL.md).
	Parallelism int
}

// OptionError reports an invalid MapOptions field combination found by
// Normalize. Option names the offending field; Reason says what is
// wrong with it.
type OptionError struct {
	Option string
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("oregami: invalid option %s: %s", e.Option, e.Reason)
}

// Normalize validates opts and returns a normalized copy (nil receiver
// means all defaults). It rejects, with a typed *OptionError:
//
//   - negative Timeout
//   - StageTimeout >= Timeout when both are set (the stage degradation
//     window would never fire before the whole pipeline dies)
//   - everything core.Request.Validate rejects: an unknown Force class,
//     and negative Parallelism, MaxTasksPerProc or StageTimeout
//
// The receiver is never modified; Map and MapContext operate on the
// returned copy.
func (o *MapOptions) Normalize() (*MapOptions, error) {
	out := &MapOptions{}
	if o != nil {
		*out = *o
	}
	if out.Timeout < 0 {
		return nil, &OptionError{Option: "Timeout", Reason: fmt.Sprintf("must be >= 0, got %v", out.Timeout)}
	}
	if out.Timeout > 0 && out.StageTimeout >= out.Timeout {
		return nil, &OptionError{Option: "StageTimeout", Reason: fmt.Sprintf("%v does not fit inside Timeout %v; the degraded-contraction fallback could never run", out.StageTimeout, out.Timeout)}
	}
	req := out.request()
	if err := req.Validate(); err != nil {
		var fe *core.FieldError
		if errors.As(err, &fe) {
			return nil, &OptionError{Option: fe.Field, Reason: fe.Reason}
		}
		return nil, err
	}
	out.Force = string(req.Force)
	return out, nil
}

// request is the core.Request these options describe, short of the
// program, the network and the context.
func (o *MapOptions) request() core.Request {
	return core.Request{
		Force:           core.Class(o.Force),
		MaxTasksPerProc: o.MaxTasksPerProc,
		Refine:          o.Refine,
		Route:           route.Options{UseMaximum: o.MaximumMatchingRouter},
		StageTimeout:    o.StageTimeout,
		Check:           o.Check,
		Parallelism:     o.Parallelism,
	}
}

// FaultModel is a set of failed processors and links.
type FaultModel = fault.Model

// NewFaultModel returns an empty fault model; add failures with
// FailProcessor and FailLink.
func NewFaultModel() *FaultModel { return fault.NewModel() }

// FaultInjector draws random failures from a seeded source.
type FaultInjector = fault.Injector

// NewFaultInjector returns a deterministic seeded fault injector.
func NewFaultInjector(seed int64) *FaultInjector { return fault.NewInjector(seed) }

// RepairReport describes one degraded-mode repair: what failed, which
// tasks migrated where, which phases were rerouted, and metric deltas.
type RepairReport = fault.RepairReport

// PipelineError names the MAPPER pipeline stage that failed on
// cancellation, deadline expiry, or a contained panic.
type PipelineError = core.PipelineError

// Mapping is a completed mapping with its provenance.
type Mapping struct {
	res  *core.Result
	comp *larcs.Compiled
}

// Map runs MAPPER without cancellation; it is MapContext with
// context.Background(). Prefer MapContext in servers and anywhere a
// deadline or cancellation signal exists.
func (c *Computation) Map(net *Network, opts *MapOptions) (*Mapping, error) {
	return c.MapContext(context.Background(), net, opts)
}

// MapContext is the primary mapping entry point: it validates opts
// (returning a typed *OptionError on invalid combinations), then runs
// the MAPPER pipeline — contraction, embedding, routing, and the
// optional post-condition check — under ctx. The pipeline's inner
// loops check ctx cooperatively, and cancellation or deadline expiry
// returns a *PipelineError naming the interrupted stage.
func (c *Computation) MapContext(ctx context.Context, net *Network, opts *MapOptions) (*Mapping, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if opts.Faults != nil && !opts.Faults.Empty() {
		masked, err := opts.Faults.Mask(net)
		if err != nil {
			return nil, err
		}
		net = masked
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	req := opts.request()
	req.Compiled, req.Net, req.Ctx = c.compiled, net, ctx
	res, err := core.Map(req)
	if err != nil {
		return nil, err
	}
	return &Mapping{res: res, comp: c.compiled}, nil
}

// Class reports which MAPPER algorithm class produced the mapping:
// "canned", "systolic", "group-theoretic", or "arbitrary".
func (m *Mapping) Class() string { return string(m.res.Class) }

// Method describes the concrete algorithms used.
func (m *Mapping) Method() string { return m.res.Mapping.Method }

// Trail returns the dispatcher's decision log.
func (m *Mapping) Trail() []string { return append([]string(nil), m.res.Trail...) }

// ProcessorOf returns the processor hosting the given task.
func (m *Mapping) ProcessorOf(task int) int { return m.res.Mapping.ProcOf(task) }

// TasksPerProcessor returns the task count per processor.
func (m *Mapping) TasksPerProcessor() []int { return m.res.Mapping.TasksPerProc() }

// TotalIPC returns the total interprocessor communication volume.
func (m *Mapping) TotalIPC() float64 { return m.res.Mapping.TotalIPC() }

// Metrics computes the METRICS report for the mapping.
type Metrics = metrics.Report

// Metrics computes load, link, and overall metrics.
func (m *Mapping) Metrics() (*Metrics, error) {
	return metrics.Compute(m.res.Mapping)
}

// Render produces the ASCII METRICS display.
func (m *Mapping) Render() (string, error) {
	r, err := m.Metrics()
	if err != nil {
		return "", err
	}
	return metrics.Render(m.res.Mapping, r), nil
}

// SimConfig configures the completion-time simulation.
type SimConfig = sim.Config

// Simulate executes the computation's phase schedule on the mapped
// machine model and returns the completion time. maxSteps bounds the
// flattened schedule length (0 = unbounded).
func (m *Mapping) Simulate(cfg SimConfig, maxSteps int) (float64, error) {
	return sim.Makespan(m.res.Mapping, m.comp.Phases, cfg, maxSteps)
}

// SimulateSteps runs the simulation and returns the per-step breakdown.
func (m *Mapping) SimulateSteps(cfg SimConfig, maxSteps int) (*sim.Result, error) {
	if m.comp.Phases == nil {
		return nil, fmt.Errorf("oregami: computation has no phase expression")
	}
	steps, err := phase.Flatten(m.comp.Phases, maxSteps)
	if err != nil {
		return nil, err
	}
	return sim.Run(m.res.Mapping, steps, cfg)
}

// ReassignTask moves a task to a processor (the METRICS modification
// loop); routes are invalidated and recomputed. The move is atomic: if
// rerouting fails (e.g. the target is unreachable on a degraded
// machine), the mapping rolls back to its previous state.
func (m *Mapping) ReassignTask(task, proc int) error {
	return metrics.MoveTask(m.res.Mapping, task, proc)
}

// Repair remaps around the failures in model without recomputing the
// mapping from scratch: the network is masked, tasks on failed
// processors evacuate to the nearest live processor, and the affected
// phases are rerouted around dead links. The repair is atomic — on
// error the mapping is unchanged. Successive repairs union their
// failures.
func (m *Mapping) Repair(model *FaultModel) (*RepairReport, error) {
	return fault.Repair(m.res.Mapping, model)
}

// SimulateWithFaults executes the phase schedule while failing hardware
// mid-run per the events, repairing the mapping in degraded mode between
// steps. The mapping itself is not modified. maxSteps bounds the
// flattened schedule length (0 = unbounded).
func (m *Mapping) SimulateWithFaults(cfg SimConfig, maxSteps int, events []FaultEvent) (*sim.FaultyResult, error) {
	if m.comp.Phases == nil {
		return nil, fmt.Errorf("oregami: computation has no phase expression")
	}
	steps, err := phase.Flatten(m.comp.Phases, maxSteps)
	if err != nil {
		return nil, err
	}
	return sim.RunWithFaults(m.res.Mapping, steps, cfg, events)
}

// FaultEvent fails processors and links just before a schedule step.
type FaultEvent = sim.FaultEvent

// RouteOf returns the link-id route of the k-th edge of a phase.
func (m *Mapping) RouteOf(phaseName string, edge int) ([]int, error) {
	routes, ok := m.res.Mapping.Routes[phaseName]
	if !ok {
		return nil, fmt.Errorf("oregami: phase %q is not routed", phaseName)
	}
	if edge < 0 || edge >= len(routes) {
		return nil, fmt.Errorf("oregami: edge %d out of range", edge)
	}
	return append([]int(nil), routes[edge]...), nil
}

// Validate re-checks all structural invariants of the mapping.
func (m *Mapping) Validate() error { return m.res.Mapping.Validate() }

// Violation is one broken mapping invariant found by the post-condition
// oracle: a stable machine-readable Kind ("partition", "embedding",
// "walk", "dead-link", "phase-conflict", "metrics"), the communication
// phase when phase-scoped, and a human-readable detail.
type Violation = check.Violation

// ViolationError is the error a checked Map returns on oracle failure;
// it carries the full violation list.
type ViolationError = check.ViolationError

// RenderViolations formats violations one per line ("check: kind: ..."),
// stable and diffable like the vet diagnostics.
func RenderViolations(vs []Violation) string { return check.Render(vs) }

// Check runs the post-condition oracle on the mapping as it stands —
// including after ReassignTask or Repair — and returns every violated
// invariant (nil when the mapping is valid). The METRICS values are
// recomputed independently and compared exactly.
func (m *Mapping) Check() []Violation {
	inner := m.res.Mapping
	return check.Run(m.comp.Graph, inner.Net, inner, 1)
}

// --- Section 6 extensions -----------------------------------------------

// Schedule computes task synchrony sets and per-processor scheduling
// directives (the paper's Section 6 scheduling extension).
type Schedule = sched.Schedule

// Schedule builds the synchrony-set schedule for this mapping.
func (m *Mapping) Schedule() (*Schedule, error) {
	return sched.Build(m.res.Mapping)
}

// RenderSchedule renders the synchrony sets and path-expression
// directives.
func (m *Mapping) RenderSchedule() (string, error) {
	s, err := m.Schedule()
	if err != nil {
		return "", err
	}
	return s.Render(m.res.Mapping), nil
}

// AggregationAnalysis compares the literal routing of a single-collector
// phase against a synthesized spanning-tree aggregation (the paper's
// Section 6 "avoid overspecification" extension).
type AggregationAnalysis = aggregate.Result

// AnalyzeAggregation runs the comparison for the named phase.
func (m *Mapping) AnalyzeAggregation(phaseName string) (*AggregationAnalysis, error) {
	return aggregate.Replace(m.res.Mapping, phaseName)
}

// BinaryTreeSpawner builds the Section 6 dynamic-spawning tracker for a
// full binary tree of the given depth on a network: tasks spawn
// generation by generation and are placed incrementally without moving
// earlier tasks.
func BinaryTreeSpawner(depth int, net *Network) (*spawn.IncrementalMapping, error) {
	b, err := spawn.NewBinaryTree(depth)
	if err != nil {
		return nil, err
	}
	return spawn.NewIncrementalMapping(b, net)
}
