// Package core is MAPPER's dispatcher (paper, Fig 3): it classifies a
// compiled LaRCS computation and drives the three mapping steps —
// contraction, embedding, routing — with the algorithm family that fits:
//
//   - nameable task graphs -> canned contractions/embeddings (Section 4.1)
//   - affine recurrences   -> systolic space-time mapping (Section 4.2.1)
//   - node-symmetric graphs-> group-theoretic contraction (Section 4.2.2)
//   - arbitrary graphs     -> MWM-Contract + NN-Embed (Section 4.3)
//
// and MM-Route for routing in every case (Section 4.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"oregami/internal/canned"
	"oregami/internal/check"
	"oregami/internal/contract"
	"oregami/internal/embed"
	"oregami/internal/graph"
	"oregami/internal/larcs"
	"oregami/internal/mapping"
	"oregami/internal/multilevel"
	"oregami/internal/route"
	"oregami/internal/systolic"
	"oregami/internal/topology"
)

// Class identifies which MAPPER branch produced a mapping.
type Class string

const (
	ClassCanned    Class = "canned"
	ClassSystolic  Class = "systolic"
	ClassGroup     Class = "group-theoretic"
	ClassArbitrary Class = "arbitrary"
	// ClassMultilevel and ClassBisect are the scale-oriented mappers
	// (internal/multilevel): coarsen/map/uncoarsen and recursive
	// bisection. They are selected explicitly via Force ("-algo" on the
	// CLIs) rather than joining the automatic try order — at the small
	// sizes the auto ladder serves, the paper's exact pipeline is the
	// better default, and at the million-task sizes these exist for,
	// callers know they want them.
	ClassMultilevel Class = "multilevel"
	ClassBisect     Class = "recursive-bisection"
)

// ParseClass resolves a class name as every entry point accepts it: ""
// and "auto" mean auto-dispatch (returned as ""), and each class name
// above means itself. It reports false for any other name.
func ParseClass(s string) (Class, bool) {
	switch c := Class(s); c {
	case "", "auto":
		return "", true
	case ClassCanned, ClassSystolic, ClassGroup, ClassArbitrary, ClassMultilevel, ClassBisect:
		return c, true
	}
	return "", false
}

// FieldError reports a Request field that Validate rejected. Field is
// the field's Go name ("Force", "Parallelism", "MaxTasksPerProc" or
// "StageTimeout"); each front door translates it into its own spelling
// of the option.
type FieldError struct {
	Field  string
	Reason string
}

func (e *FieldError) Error() string { return fmt.Sprintf("core: invalid %s: %s", e.Field, e.Reason) }

// PipelineError is the typed failure of one MAPPER pipeline stage: panics
// are contained and converted into it, and cancellation or deadline
// expiry surfaces through it, so callers can tell which stage failed and
// why (Unwrap exposes context.Canceled / context.DeadlineExceeded).
type PipelineError struct {
	// Stage names the failed stage: "dispatch", a class name ("canned",
	// "systolic", "group-theoretic", "arbitrary"), "route", "validate",
	// or "check".
	Stage string
	Err   error
}

func (e *PipelineError) Error() string { return fmt.Sprintf("core: stage %s: %v", e.Stage, e.Err) }
func (e *PipelineError) Unwrap() error { return e.Err }

// expired reports the context's error, additionally treating a passed
// deadline whose cancellation timer has not fired yet as
// context.DeadlineExceeded: on a single-CPU scheduler a fast CPU-bound
// pipeline can outrun the timer goroutine, leaving ctx.Err() nil past
// the deadline.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Request asks MAPPER for a mapping of a compiled computation onto a
// network.
type Request struct {
	Compiled *larcs.Compiled
	Net      *topology.Network
	// Force restricts the dispatcher to one class ("" or "auto" tries
	// canned, systolic, group-theoretic, then arbitrary).
	Force Class
	// MaxTasksPerProc is the load-balance bound B for MWM-Contract
	// (0 = default).
	MaxTasksPerProc int
	// Refine applies the classic local-search refinements after the
	// constructive algorithms: Kernighan-Lin task swaps after
	// MWM-Contract and Bokhari-style pairwise exchanges after NN-Embed.
	Refine bool
	// Parallelism is the worker budget threaded into the pipeline's
	// parallel hot paths — MWM-Contract's candidate-gain scoring,
	// MM-Route's per-phase fan-out, and the METRICS recomputation of the
	// check stage. 0 means GOMAXPROCS, 1 forces sequential execution,
	// and n > 1 allows n workers. Every setting produces a bit-identical
	// mapping (internal/par's determinism contract); the budget only
	// changes wall-clock time.
	Parallelism int
	// Route configures MM-Route. Its Parallelism and Ctx fields are
	// overwritten from the Request's during dispatch.
	Route route.Options
	// Ctx carries deadlines and cancellation through contraction,
	// embedding, and routing; the inner loops check it cooperatively.
	// Nil means context.Background().
	Ctx context.Context
	// StageTimeout optionally bounds the expensive MWM contraction
	// stage on its own sub-deadline: when the stage times out while the
	// overall context is still live, the dispatcher degrades to the
	// cheaper Stone/greedy contraction instead of failing, recording
	// the downgrade in the Trail. Zero disables the stage bound.
	StageTimeout time.Duration
	// Check runs the post-condition oracle (internal/check) on the
	// finished mapping, including an independent recomputation of the
	// METRICS values. Any violation fails the pipeline with a
	// *PipelineError whose Stage is "check" wrapping a
	// *check.ViolationError carrying the full report.
	Check bool
	// Observe, when non-nil, receives the wall-clock duration of each
	// pipeline stage as it completes: "contract" and "embed" inside the
	// winning class, "route", "check", and "dispatch" for the whole
	// class-selection run. The serving layer feeds these into its
	// per-stage latency histograms; the hook must be fast and must not
	// retain the arguments.
	Observe func(stage string, d time.Duration)
}

// Validate is the one option check behind every front door: Force must
// name a class ParseClass accepts, and Parallelism, MaxTasksPerProc and
// StageTimeout must not be negative. It resolves Force in place, so
// "auto" becomes "". Map runs it first; a caller that must reject a
// request before other work (mapd derives its cache key) runs it
// itself. Every error is a *FieldError.
func (req *Request) Validate() error {
	class, ok := ParseClass(string(req.Force))
	if !ok {
		return &FieldError{Field: "Force", Reason: fmt.Sprintf("unknown algorithm class %q (want canned, systolic, group-theoretic, arbitrary, multilevel, or recursive-bisection)", req.Force)}
	}
	req.Force = class
	switch {
	case req.Parallelism < 0:
		return &FieldError{Field: "Parallelism", Reason: fmt.Sprintf("must be >= 0 (0 = all CPUs), got %d", req.Parallelism)}
	case req.MaxTasksPerProc < 0:
		return &FieldError{Field: "MaxTasksPerProc", Reason: fmt.Sprintf("must be >= 0 (0 = derive), got %d", req.MaxTasksPerProc)}
	case req.StageTimeout < 0:
		return &FieldError{Field: "StageTimeout", Reason: fmt.Sprintf("must be >= 0, got %v", req.StageTimeout)}
	}
	return nil
}

// observe reports one completed stage to the Observe hook, if any.
func (req *Request) observe(stage string, start time.Time) {
	if req.Observe != nil {
		req.Observe(stage, time.Since(start))
	}
}

// Result is a complete mapping plus the evidence of how it was obtained.
type Result struct {
	Mapping *mapping.Mapping
	Class   Class
	// Detection is set for canned mappings.
	Detection *canned.Detection
	// GroupInfo is set for group-theoretic contractions.
	GroupInfo *contract.GroupInfo
	// Systolic is set for systolic mappings.
	Systolic *systolic.Mapping
	// RouteStats holds MM-Route statistics per phase.
	RouteStats map[string]route.Stats
	// Trail records the dispatcher's decisions for display.
	Trail []string
	// Degraded is set when MWM-Contract failed (a StageTimeout expiry or
	// a contained panic) and the mapping came from the Stone or greedy
	// fallback. A timeout downgrade depends on machine load, not only on
	// the request, so equal requests can get different mappings; a
	// cache must not keep such a result as the request's answer.
	Degraded bool
}

// ctxErr reports whether err is a cancellation or deadline error.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// asPipelineError wraps err in a *PipelineError naming the stage, unless
// it already is one.
func asPipelineError(stage string, err error) *PipelineError {
	var pe *PipelineError
	if errors.As(err, &pe) {
		return pe
	}
	return &PipelineError{Stage: stage, Err: err}
}

// safeStage runs one pipeline stage with panic containment: a panic is
// recovered and converted into a *PipelineError naming the stage, so no
// panic from a mapping algorithm ever escapes the public API.
func safeStage(stage string, fn func() (*mapping.Mapping, error)) (m *mapping.Mapping, err error) {
	defer func() {
		if r := recover(); r != nil {
			m = nil
			err = &PipelineError{Stage: stage, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return fn()
}

// Map runs the dispatcher after Validate, whose *FieldError it returns
// as is. Cancellation, deadline expiry, and contained panics return a
// *PipelineError naming the failed stage; all other per-class failures
// degrade down the try order (the degradation ladder: systolic ->
// canned -> group-theoretic -> arbitrary -> greedy/Stone), with every
// downgrade recorded in the Trail.
func Map(req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Compiled == nil || req.Net == nil {
		return nil, fmt.Errorf("core: request needs a compiled program and a network")
	}
	g := req.Compiled.Graph
	if g.NumTasks == 0 {
		return nil, fmt.Errorf("core: empty task graph")
	}
	if req.Net.NumLive() == 0 {
		return nil, fmt.Errorf("core: no live processors in %s", req.Net.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, &PipelineError{Stage: "dispatch", Err: err}
	}
	res := &Result{}
	trail := func(format string, args ...interface{}) {
		res.Trail = append(res.Trail, fmt.Sprintf(format, args...))
	}
	dispatchStart := time.Now()

	// Systolic comes first: it only applies to affine recurrences headed
	// for a mesh or linear array, and is the most specialized method;
	// then canned lookups, group theory, and the general fallback.
	tryOrder := []Class{ClassSystolic, ClassCanned, ClassGroup, ClassArbitrary}
	if req.Force != "" {
		tryOrder = []Class{req.Force}
	}
	var lastErr error
	for _, class := range tryOrder {
		class := class
		m, err := safeStage(string(class), func() (*mapping.Mapping, error) {
			switch class {
			case ClassCanned:
				return mapCanned(ctx, req, res, trail)
			case ClassSystolic:
				return mapSystolic(ctx, req, res, trail)
			case ClassGroup:
				return mapGroup(ctx, req, res, trail)
			case ClassArbitrary:
				return mapArbitrary(ctx, req, res, trail)
			case ClassMultilevel:
				return mapMultilevel(ctx, req, trail)
			case ClassBisect:
				return mapBisect(ctx, req, trail)
			default:
				return nil, fmt.Errorf("core: unknown class %q", class)
			}
		})
		if err != nil {
			if ctxErr(err) && ctx.Err() != nil {
				return nil, asPipelineError(string(class), err)
			}
			trail("%s: %v", class, err)
			lastErr = err
			continue
		}
		res.Mapping = m
		res.Class = class
		req.observe("dispatch", dispatchStart)
		// Stage-boundary deadline check: the class mappers' cooperative
		// checks are sparse enough that a fast pipeline can finish an
		// entire stage without noticing an expired context.
		if err := expired(ctx); err != nil {
			return nil, &PipelineError{Stage: "route", Err: err}
		}
		routeOpts := req.Route
		routeOpts.Ctx = ctx
		routeOpts.Parallelism = req.Parallelism
		var stats map[string]route.Stats
		routeStart := time.Now()
		_, err = safeStage("route", func() (*mapping.Mapping, error) {
			var rerr error
			stats, rerr = route.RouteAll(m, routeOpts)
			return m, rerr
		})
		req.observe("route", routeStart)
		if err != nil {
			if ctxErr(err) {
				return nil, asPipelineError("route", err)
			}
			return nil, err
		}
		res.RouteStats = stats
		if err := expired(ctx); err != nil {
			return nil, &PipelineError{Stage: "validate", Err: err}
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("core: produced invalid mapping: %w", err)
		}
		if req.Check {
			checkStart := time.Now()
			if vs := check.Run(g, req.Net, m, req.Parallelism); len(vs) > 0 {
				return nil, &PipelineError{Stage: "check", Err: &check.ViolationError{Violations: vs}}
			}
			req.observe("check", checkStart)
			trail("check: oracle passed (%d comm phases verified)", len(g.Comm))
		}
		return res, nil
	}
	if ctxErr(lastErr) {
		return nil, asPipelineError("dispatch", lastErr)
	}
	return nil, fmt.Errorf("core: no mapping class applied: %w", lastErr)
}

// mapCanned detects a nameable family and uses the canned library,
// folding first when there are more tasks than processors. Degraded
// networks are refused up front: canned embeddings index the pristine
// topology and would place tasks on failed processors.
func mapCanned(ctx context.Context, req Request, res *Result, trail func(string, ...interface{})) (*mapping.Mapping, error) {
	if req.Net.Degraded() {
		return nil, fmt.Errorf("network %s is degraded; canned embeddings need the pristine topology", req.Net.Name)
	}
	g := req.Compiled.Graph
	det := canned.Detect(g)
	if det == nil {
		return nil, fmt.Errorf("task graph matches no nameable family")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Detection = det
	trail("canned: detected %s", det)
	m := mapping.New(g, req.Net)

	if g.NumTasks > req.Net.N {
		foldPart, err := canned.Fold(det, req.Net.N)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.Part = make([]int, g.NumTasks)
		for t := 0; t < g.NumTasks; t++ {
			m.Part[t] = foldPart[det.Canon[t]]
		}
		trail("canned: folded %d tasks onto %d clusters (quotient network)", g.NumTasks, req.Net.N)
		// The quotient of a nameable graph is usually nameable again:
		// detect and embed it; otherwise fall back to NN-Embed.
		cg := m.ClusterGraph()
		if qdet := canned.Detect(cg); qdet != nil {
			if e := canned.Lookup(qdet, req.Net); e != nil {
				m.Place = make([]int, cg.NumTasks)
				for c := 0; c < cg.NumTasks; c++ {
					m.Place[c] = e.Proc[qdet.Canon[c]]
				}
				m.Method = "canned:fold+" + e.Name
				trail("canned: quotient embedded via %s", e.Name)
				return m, nil
			}
		}
		place, err := embed.NNEmbedCtx(ctx, cg, req.Net)
		if err != nil {
			return nil, err
		}
		m.Place = place
		m.Method = "canned:fold+nn-embed"
		trail("canned: quotient embedded via NN-Embed")
		return m, nil
	}

	e := canned.Lookup(det, req.Net)
	if e == nil {
		return nil, fmt.Errorf("no canned embedding of %s into %s", det, req.Net.Name)
	}
	if err := m.IdentityContraction(); err != nil {
		return nil, err
	}
	m.Place = make([]int, g.NumTasks)
	for t := 0; t < g.NumTasks; t++ {
		m.Place[t] = e.Proc[det.Canon[t]]
	}
	m.Method = "canned:" + e.Name
	trail("canned: embedded via %s", e.Name)
	return m, nil
}

// mapSystolic runs the affine checks and space-time synthesis; the
// resulting virtual PE array must fit the target mesh or linear array.
func mapSystolic(ctx context.Context, req Request, res *Result, trail func(string, ...interface{})) (*mapping.Mapping, error) {
	if req.Net.Degraded() {
		return nil, fmt.Errorf("network %s is degraded; systolic arrays need the pristine topology", req.Net.Name)
	}
	if req.Net.Kind != "mesh" && req.Net.Kind != "linear" && req.Net.Kind != "torus" {
		return nil, fmt.Errorf("target %s is not a systolic array or MIMD mesh", req.Net.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, err := systolic.Analyze(req.Compiled.Program, req.Compiled.Bindings)
	if err != nil {
		return nil, err
	}
	sm, err := systolic.Synthesize(a)
	if err != nil {
		return nil, err
	}
	if err := systolic.Verify(a, sm); err != nil {
		return nil, err
	}
	res.Systolic = sm
	trail("systolic: schedule lambda=%v, project dim %d, latency %d, PEs %v",
		sm.Lambda, sm.ProjectDim, sm.Latency, sm.PEExtent)

	// Processor id for a PE coordinate vector.
	peProc := func(coord []int) (int, error) {
		switch {
		case len(coord) == 1 && req.Net.Kind == "linear":
			if coord[0] >= req.Net.N {
				return 0, fmt.Errorf("PE %v outside %s", coord, req.Net.Name)
			}
			return coord[0], nil
		case len(coord) == 1 && (req.Net.Kind == "mesh" || req.Net.Kind == "torus"):
			// Lay the linear PE array along the mesh rows (snake) so
			// consecutive PEs stay adjacent.
			if coord[0] >= req.Net.N {
				return 0, fmt.Errorf("PE %v outside %s", coord, req.Net.Name)
			}
			cdim := req.Net.Dims[1]
			r := coord[0] / cdim
			c := coord[0] % cdim
			if r%2 == 1 {
				c = cdim - 1 - c
			}
			return r*cdim + c, nil
		case len(coord) == 2 && (req.Net.Kind == "mesh" || req.Net.Kind == "torus"):
			if coord[0] >= req.Net.Dims[0] || coord[1] >= req.Net.Dims[1] {
				return 0, fmt.Errorf("PE %v outside %s", coord, req.Net.Name)
			}
			return coord[0]*req.Net.Dims[1] + coord[1], nil
		}
		return 0, fmt.Errorf("cannot place a %d-D PE array on %s", len(coord), req.Net.Name)
	}

	g := req.Compiled.Graph
	info := req.Compiled.NodeTypes[0]
	m := mapping.New(g, req.Net)
	m.Part = make([]int, g.NumTasks)
	procOfCluster := make(map[int]int) // dense cluster id -> processor
	clusterOfProc := make(map[int]int)
	next := 0
	for t := 0; t < g.NumTasks; t++ {
		idx := info.Index(t)
		p, err := peProc(sm.Place(idx))
		if err != nil {
			return nil, err
		}
		c, ok := clusterOfProc[p]
		if !ok {
			c = next
			next++
			clusterOfProc[p] = c
			procOfCluster[c] = p
		}
		m.Part[t] = c
	}
	m.Place = make([]int, next)
	for c, p := range procOfCluster {
		m.Place[c] = p
	}
	m.Method = fmt.Sprintf("systolic:lambda=%v/proj=%d", sm.Lambda, sm.ProjectDim)
	return m, nil
}

// mapGroup contracts via the Cayley-graph quotient construction and
// embeds the (node-symmetric) cluster graph greedily.
func mapGroup(ctx context.Context, req Request, res *Result, trail func(string, ...interface{})) (*mapping.Mapping, error) {
	if req.Net.Degraded() {
		return nil, fmt.Errorf("network %s is degraded; group-theoretic contraction targets the pristine machine", req.Net.Name)
	}
	g := req.Compiled.Graph
	clusters := req.Net.N
	if g.NumTasks < clusters {
		clusters = g.NumTasks
	}
	contractStart := time.Now()
	part, info, err := contract.GroupContract(ctx, g, clusters)
	if err != nil {
		return nil, err
	}
	req.observe("contract", contractStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.GroupInfo = info
	gen := info.FromGenerator
	if gen == "" {
		gen = "subgroup lattice"
	}
	trail("group: |G|=%d, subgroup of order %d from %s (normal=%v, sylow=%v)",
		info.Group.Order(), len(info.Subgroup), gen, info.Normal, info.SylowGuaranteed)
	m := mapping.New(g, req.Net)
	m.Part = part
	embedStart := time.Now()
	place, err := embed.NNEmbedCtx(ctx, m.ClusterGraph(), req.Net)
	if err != nil {
		return nil, err
	}
	req.observe("embed", embedStart)
	m.Place = place
	m.Method = "group-contract+nn-embed"
	return m, nil
}

// mapArbitrary is the fallback: MWM-Contract then NN-Embed, contracting
// to the number of live processors on degraded networks. It is itself
// fault-tolerant: a panic or a StageTimeout expiry inside MWM-Contract
// degrades to the cheap Stone (two live processors) or greedy-only
// contraction, so a pathological input still gets mapped.
func mapArbitrary(ctx context.Context, req Request, res *Result, trail func(string, ...interface{})) (*mapping.Mapping, error) {
	g := req.Compiled.Graph
	m := mapping.New(g, req.Net)
	liveN := req.Net.NumLive()
	contractStart := time.Now()
	if g.NumTasks <= liveN {
		if err := m.IdentityContraction(); err != nil {
			return nil, err
		}
		trail("arbitrary: %d tasks fit %d live processors; no contraction", g.NumTasks, liveN)
	} else {
		part, degraded, err := contractWithFallback(ctx, req, g, liveN, trail)
		if err != nil {
			return nil, err
		}
		res.Degraded = degraded
		m.Part = part
		trail("arbitrary: contracted to %d clusters (IPC %g)", m.NumClusters(), m.TotalIPC())
		if req.Refine {
			_, moves, err := contract.KLRefine(ctx, g, m.Part, 0, 8)
			if err != nil {
				return nil, err
			}
			trail("arbitrary: KL refinement applied %d moves (IPC %g)", moves, m.TotalIPC())
		}
	}
	req.observe("contract", contractStart)
	embedStart := time.Now()
	cg := m.ClusterGraph()
	place, err := embed.NNEmbedCtx(ctx, cg, req.Net)
	if err != nil {
		return nil, err
	}
	m.Place = place
	m.Method = "mwm-contract+nn-embed"
	if req.Refine {
		_, moves, err := embed.SwapRefine(ctx, cg, req.Net, m.Place, 8)
		if err != nil {
			return nil, err
		}
		trail("arbitrary: swap refinement applied %d moves", moves)
		m.Method += "+refine"
	}
	req.observe("embed", embedStart)
	return m, nil
}

// contractWithFallback runs MWM-Contract under the optional stage
// deadline with panic containment, degrading to Stone (two processors)
// or the greedy-only pass when the full algorithm times out or panics
// while the overall context is still live. degraded reports that a
// fallback produced the partition.
func contractWithFallback(ctx context.Context, req Request, g *graph.TaskGraph, liveN int, trail func(string, ...interface{})) (part []int, degraded bool, err error) {
	sctx := ctx
	cancel := func() {}
	if req.StageTimeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, req.StageTimeout)
	}
	part, err = safeContract(func() ([]int, error) {
		return contract.MWMContract(g, contract.Options{
			Processors:      liveN,
			MaxTasksPerProc: req.MaxTasksPerProc,
			Ctx:             sctx,
			Parallelism:     req.Parallelism,
		})
	})
	cancel()
	if err == nil {
		return part, false, nil
	}
	if ctx.Err() != nil {
		// The overall deadline is gone: no point degrading.
		return nil, false, err
	}
	// Degrade: Stone's optimal two-processor assignment when exactly two
	// processors are live, else the greedy-only contraction.
	if liveN == 2 {
		trail("arbitrary: MWM-Contract failed (%v); downgrading to Stone two-processor assignment", err)
		exec := contract.UniformExecCosts(g)
		part, _, serr := contract.TwoProcStone(g, exec, exec)
		if serr != nil {
			return nil, false, fmt.Errorf("stone fallback after %v: %w", err, serr)
		}
		// Stone may leave everything on one side; cluster ids must stay
		// dense for Validate.
		onZero := false
		for _, c := range part {
			if c == 0 {
				onZero = true
				break
			}
		}
		if !onZero {
			for i := range part {
				part[i] = 0
			}
		}
		return part, true, nil
	}
	trail("arbitrary: MWM-Contract failed (%v); downgrading to greedy contraction", err)
	part, gerr := safeContract(func() ([]int, error) {
		return contract.MWMContract(g, contract.Options{
			Processors:      liveN,
			MaxTasksPerProc: req.MaxTasksPerProc,
			SkipMatching:    true,
			Ctx:             ctx,
			Parallelism:     req.Parallelism,
		})
	})
	if gerr != nil {
		return nil, false, fmt.Errorf("greedy fallback after %v: %w", err, gerr)
	}
	return part, true, nil
}

// mapMultilevel runs the hierarchical coarsen/map/uncoarsen engine
// (internal/multilevel): the scale path for task graphs far larger
// than the exact pipeline can contract in one round.
func mapMultilevel(ctx context.Context, req Request, trail func(string, ...interface{})) (*mapping.Mapping, error) {
	g := req.Compiled.Graph
	contractStart := time.Now()
	m, st, err := multilevel.Map(g, req.Net, multilevel.Options{
		MaxTasksPerProc: req.MaxTasksPerProc,
		Ctx:             ctx,
		Parallelism:     req.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	req.observe("contract", contractStart)
	trail("multilevel: %d levels (coarsest %d of %d tasks), %d refine moves, %d clusters (IPC %g)",
		st.Levels, st.CoarsestTasks, g.NumTasks, st.RefineMoves, st.Clusters, m.TotalIPC())
	return m, nil
}

// mapBisect runs the recursive-bisection baseline (internal/multilevel):
// index-halved processor groups, BFS-grown task halves.
func mapBisect(ctx context.Context, req Request, trail func(string, ...interface{})) (*mapping.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := req.Compiled.Graph
	contractStart := time.Now()
	m, st, err := multilevel.BisectMap(g, req.Net, multilevel.Options{
		MaxTasksPerProc: req.MaxTasksPerProc,
		Ctx:             ctx,
		Parallelism:     req.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	req.observe("contract", contractStart)
	trail("recursive-bisection: %d tasks into %d clusters over %d live processors (IPC %g)",
		g.NumTasks, st.Clusters, req.Net.NumLive(), m.TotalIPC())
	return m, nil
}

// safeContract contains panics from a contraction algorithm.
func safeContract(fn func() ([]int, error)) (part []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			part = nil
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// MapGraph is a convenience for callers with a bare task graph and no
// LaRCS program (e.g. benchmarks): it wraps the graph in a minimal
// compiled form and runs Map. Without a program there is no recurrence,
// so auto-dispatch's systolic attempt always declines.
func MapGraph(g *graph.TaskGraph, net *topology.Network, force Class) (*Result, error) {
	comp := &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}
	return Map(Request{Compiled: comp, Net: net, Force: force})
}
