package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"oregami/internal/analysis"
	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/larcs"
	"oregami/internal/metrics"
	"oregami/internal/route"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// APIVersion is the wire schema version stamped into every JSON
// response envelope (success, error, and batch alike) as "apiVersion".
// Clients should reject envelopes whose version they do not understand.
//
// v2 moved the request knobs into the options{} envelope
// (options.algo/check/nocache), added node/proxied to response envelopes
// for cluster mode, and made /v1/map/batch stream NDJSON or SSE. The v1
// spellings (top-level check/nocache, options.force) are unknown fields
// now and get a 400 that names them.
const APIVersion = "v2"

// MapRequest is the body of POST /v1/map: a LaRCS program (inline source
// or a bundled workload name), parameter bindings, a target network
// spec, and options.
type MapRequest struct {
	// Source is inline LaRCS text. Exactly one of Source and Workload
	// must be set.
	Source string `json:"source,omitempty"`
	// Workload names a bundled workload (GET /v1/workloads lists them);
	// its default bindings are merged under Bindings.
	Workload string `json:"workload,omitempty"`
	// Bindings are LaRCS parameter values, e.g. {"n": 15, "s": 2}.
	Bindings map[string]int `json:"bindings,omitempty"`
	// Net is the target network spec in CLI syntax, e.g. "hypercube:3"
	// or "mesh:4,4".
	Net string `json:"net"`
	// Options tune the MAPPER dispatcher and carry the request behavior
	// knobs options.check and options.nocache.
	Options *MapRequestOptions `json:"options,omitempty"`
}

// MapRequestOptions mirrors the result-affecting oregami.MapOptions plus
// per-request deadlines.
type MapRequestOptions struct {
	// Algo restricts the dispatcher to one algorithm class: "canned",
	// "systolic", "group-theoretic", "arbitrary", "multilevel", or
	// "recursive-bisection" ("" or "auto" lets the dispatcher choose;
	// the scale-oriented multilevel/recursive-bisection mappers are
	// never auto-selected).
	Algo string `json:"algo,omitempty"`
	// Check runs the post-condition oracle on the served mapping (also
	// settable with ?check=1); violations fail the request with 422.
	Check bool `json:"check,omitempty"`
	// NoCache bypasses the result cache lookup (the result is still
	// stored), forcing a full computation — the load generator's cold
	// phase. NoCache requests are never proxied to the owning cluster
	// node — a bypass measures this node's pipeline.
	NoCache bool `json:"nocache,omitempty"`
	// MaxTasksPerProc is MWM-Contract's load-balance bound B.
	MaxTasksPerProc int `json:"max_tasks_per_proc,omitempty"`
	// MaximumMatchingRouter swaps MM-Route's greedy maximal matching for
	// a maximum matching per round.
	MaximumMatchingRouter bool `json:"maximum_matching_router,omitempty"`
	// Refine applies local-search refinement on the arbitrary path.
	Refine bool `json:"refine,omitempty"`
	// TimeoutMS bounds this request's pipeline; it is capped by the
	// server's configured request timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// StageTimeoutMS bounds the MWM contraction stage (degrading to the
	// Stone/greedy ladder on expiry); capped by the server's configured
	// stage timeout when one is set.
	StageTimeoutMS int `json:"stage_timeout_ms,omitempty"`
	// Parallelism bounds the worker count of this request's MAPPER hot
	// paths. Zero means "use the server's per-request budget" (its core
	// budget divided across the worker pool); positive values are capped
	// by that budget; negative values are rejected with 400. The mapping
	// produced — and therefore the cache key — is identical at every
	// setting.
	Parallelism int `json:"parallelism,omitempty"`
}

// MetricsSummary is the METRICS headline numbers for a served mapping.
type MetricsSummary struct {
	Imbalance     float64 `json:"imbalance"`
	TotalIPC      float64 `json:"total_ipc"`
	TotalVolume   float64 `json:"total_volume"`
	MaxContention int     `json:"max_contention"`
	MaxDilation   int     `json:"max_dilation"`
}

// MapResponse is the body of a successful POST /v1/map.
type MapResponse struct {
	// APIVersion is the wire schema version (always "v2" today).
	APIVersion string `json:"apiVersion"`
	// Workload echoes the workload name, or "source" for inline text.
	Workload string `json:"workload"`
	// Net is the canonical network name, e.g. "hypercube(3)".
	Net   string `json:"net"`
	Tasks int    `json:"tasks"`
	Procs int    `json:"procs"`
	// Class and Method identify the MAPPER algorithms used.
	Class  string   `json:"class"`
	Method string   `json:"method"`
	Trail  []string `json:"trail,omitempty"`
	// Assignment[t] is the processor hosting task t.
	Assignment []int           `json:"assignment"`
	Metrics    *MetricsSummary `json:"metrics,omitempty"`
	// Fingerprint is the hex SHA-256 of the mapping's deterministic
	// fingerprint (check.Fingerprint): equal inputs must serve equal
	// fingerprints.
	Fingerprint string `json:"fingerprint"`
	// Cache reports how the result was obtained: "miss" (computed),
	// "hit" (served from cache), "shared" (deduplicated onto a
	// concurrent identical computation), or "bypass" (nocache).
	Cache string `json:"cache"`
	// Checked is set when the post-condition oracle ran for this
	// response; Violations lists what it found (empty on success —
	// non-empty only appears on 422 bodies).
	Checked    bool     `json:"checked,omitempty"`
	Violations []string `json:"violations,omitempty"`
	// ComputeMS is the pipeline time of the computation that produced
	// the mapping (zero-ish for cache hits); ElapsedMS is this request's
	// wall time including queueing.
	ComputeMS float64 `json:"compute_ms"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Node identifies the cluster node whose cache/pipeline produced the
	// result (empty outside cluster mode); Proxied marks a response the
	// receiving node obtained by forwarding the miss to the key's owner.
	Node    string `json:"node,omitempty"`
	Proxied bool   `json:"proxied,omitempty"`
	// Error is set on failed batch items in /v1/map/batch responses.
	Error string `json:"error,omitempty"`
}

// VetRequest is the body of POST /v1/vet.
type VetRequest struct {
	Source string `json:"source"`
}

// VetResponse carries the static analyzer's findings.
type VetResponse struct {
	APIVersion  string          `json:"apiVersion"`
	Diagnostics []analysis.Diag `json:"diagnostics"`
	HasErrors   bool            `json:"has_errors"`
}

// WorkloadInfo is one entry of GET /v1/workloads.
type WorkloadInfo struct {
	Name  string `json:"name"`
	About string `json:"about"`
}

// WorkloadsResponse is the body of GET /v1/workloads.
type WorkloadsResponse struct {
	APIVersion string         `json:"apiVersion"`
	Workloads  []WorkloadInfo `json:"workloads"`
}

// BatchItem is one streamed result line of POST /v1/map/batch: the
// item's position in the request array plus its full MapResponse
// (failed items carry the Error field). Items arrive in completion
// order, not request order — Index is how the client reassembles.
type BatchItem struct {
	Index int `json:"index"`
	MapResponse
}

// StatsResponse is the body of GET /v1/stats?json=1.
type StatsResponse struct {
	APIVersion string      `json:"apiVersion"`
	Stats      interface{} `json:"stats"`
}

// ErrorResponse is every error body: {"apiVersion": "v1", "error": msg}.
type ErrorResponse struct {
	APIVersion string `json:"apiVersion"`
	Error      string `json:"error"`
}

// httpError is an error with an HTTP status; the handlers render it as
// {"error": msg}.
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unprocessable(format string, args ...interface{}) *httpError {
	return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

// resolved is a MapRequest parsed, canonicalized, and content-addressed,
// ready for a cache lookup or a computation.
type resolved struct {
	name         string // workload name or "source"
	prog         *larcs.Program
	canonical    string
	bindings     map[string]int
	net          *topology.Network
	opts         MapRequestOptions
	key          string
	timeout      time.Duration
	stageTimeout time.Duration
	// parallelism is the effective worker budget for this request's
	// pipeline: the server's per-request budget, lowered by the
	// request's own parallelism option when set.
	parallelism int
}

// resolve validates and canonicalizes one request. It parses the program
// (but does not expand it), builds the target network, merges workload
// default bindings, clamps deadlines to the server's configuration, and
// derives the content-addressed cache key.
func (s *Server) resolve(req *MapRequest) (*resolved, *httpError) {
	if req == nil {
		return nil, badRequest("empty request")
	}
	if (req.Source == "") == (req.Workload == "") {
		return nil, badRequest("exactly one of source and workload must be set")
	}
	if req.Net == "" {
		return nil, badRequest("net is required, e.g. \"hypercube:3\"")
	}
	r := &resolved{
		name:     "source",
		bindings: make(map[string]int),
	}
	src := req.Source
	if req.Workload != "" {
		w, err := workload.ByName(req.Workload)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		r.name = w.Name
		src = w.Source
		for k, v := range w.Defaults {
			r.bindings[k] = v
		}
	}
	for k, v := range req.Bindings {
		r.bindings[k] = v
	}
	prog, err := larcs.Parse(src)
	if err != nil {
		return nil, unprocessable("parse: %v", err)
	}
	r.prog = prog
	r.canonical = larcs.Format(prog)
	net, err := topology.ParseSpec(req.Net)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	r.net = net
	if req.Options != nil {
		r.opts = *req.Options
		switch r.opts.Algo {
		case "", "auto", string(core.ClassCanned), string(core.ClassSystolic),
			string(core.ClassGroup), string(core.ClassArbitrary),
			string(core.ClassMultilevel), string(core.ClassBisect):
		default:
			return nil, badRequest("options.algo %q is not a MAPPER class (canned|systolic|group-theoretic|arbitrary|multilevel|recursive-bisection)", r.opts.Algo)
		}
		if r.opts.Parallelism < 0 {
			return nil, badRequest("options.parallelism must be >= 0 (0 = server budget), got %d", r.opts.Parallelism)
		}
		// "auto" and "" are the same dispatcher behavior; normalize so
		// they share one cache entry.
		if r.opts.Algo == "auto" {
			r.opts.Algo = ""
		}
	}
	// The effective budget is the server's per-request share of the
	// machine; a request may only lower it.
	r.parallelism = s.cfg.Parallel
	if r.opts.Parallelism > 0 && r.opts.Parallelism < r.parallelism {
		r.parallelism = r.opts.Parallelism
	}
	r.timeout = s.cfg.RequestTimeout
	if d := time.Duration(r.opts.TimeoutMS) * time.Millisecond; d > 0 && d < r.timeout {
		r.timeout = d
	}
	r.stageTimeout = s.cfg.StageTimeout
	if d := time.Duration(r.opts.StageTimeoutMS) * time.Millisecond; d > 0 && (r.stageTimeout == 0 || d < r.stageTimeout) {
		r.stageTimeout = d
	}
	r.key = cacheKey(r.canonical, r.bindings, net.Name, &r.opts)
	return r, nil
}

// compute runs the full pipeline for a resolved request — LaRCS
// expansion, MAPPER, METRICS — under the per-request deadline, recording
// stage latencies, and returns a cache-ready entry.
func (s *Server) compute(ctx context.Context, r *resolved) (*cacheEntry, error) {
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	if s.computeHook != nil {
		if err := s.computeHook(ctx); err != nil {
			return nil, err
		}
	}
	compileStart := time.Now()
	comp, err := r.prog.Compile(r.bindings, larcs.Limits{
		MaxTasks: s.cfg.MaxTasks,
		MaxEdges: s.cfg.MaxEdges,
	})
	if err != nil {
		return nil, unprocessable("compile: %v", err)
	}
	s.reg.ObserveStage("compile", time.Since(compileStart))

	mapStart := time.Now()
	res, err := core.Map(core.Request{
		Compiled:        comp,
		Net:             r.net,
		Force:           core.Class(r.opts.Algo),
		MaxTasksPerProc: r.opts.MaxTasksPerProc,
		Refine:          r.opts.Refine,
		Route:           route.Options{UseMaximum: r.opts.MaximumMatchingRouter},
		Ctx:             ctx,
		StageTimeout:    r.stageTimeout,
		Observe:         s.reg.ObserveStage,
		Parallelism:     r.parallelism,
	})
	if err != nil {
		return nil, pipelineHTTPError(err)
	}
	s.reg.ObserveStage("map", time.Since(mapStart))

	metricsStart := time.Now()
	rep, err := metrics.ComputeN(res.Mapping, r.parallelism)
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: fmt.Sprintf("metrics: %v", err)}
	}
	s.reg.ObserveStage("metrics", time.Since(metricsStart))

	m := res.Mapping
	assignment := make([]int, comp.Graph.NumTasks)
	for t := range assignment {
		assignment[t] = m.ProcOf(t)
	}
	summary := &MetricsSummary{
		Imbalance:   rep.Load.Imbalance,
		TotalIPC:    rep.TotalIPC,
		TotalVolume: rep.TotalVolume,
	}
	for _, lm := range rep.Links {
		if lm.MaxContention > summary.MaxContention {
			summary.MaxContention = lm.MaxContention
		}
		if lm.MaxDilation > summary.MaxDilation {
			summary.MaxDilation = lm.MaxDilation
		}
	}
	fp := check.Fingerprint(m)
	resp := MapResponse{
		APIVersion:  APIVersion,
		Workload:    r.name,
		Net:         r.net.Name,
		Tasks:       comp.Graph.NumTasks,
		Procs:       r.net.N,
		Class:       string(res.Class),
		Method:      m.Method,
		Trail:       res.Trail,
		Assignment:  assignment,
		Metrics:     summary,
		Fingerprint: hashHex(fp),
		ComputeMS:   float64(time.Since(compileStart)) / float64(time.Millisecond),
		Node:        s.nodeID(),
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: fmt.Sprintf("encode: %v", err)}
	}
	return &cacheEntry{
		key:  r.key,
		resp: resp,
		m:    m,
		fp:   fp,
		size: entrySize(len(body), fp, m),
	}, nil
}

// runOracle re-runs the post-condition oracle against a (possibly
// cached) mapping and returns the rendered violations, empty when clean.
func (s *Server) runOracle(m *cacheEntry) []string {
	if m.m == nil {
		// Unreachable in practice: checked requests miss on restored
		// entries, so every oracle run sees a live mapping.
		return []string{"no live mapping available for oracle"}
	}
	checkStart := time.Now()
	rep, err := metrics.Compute(m.m)
	if err != nil {
		rep = nil // the structural violations below explain why
	}
	vs := check.Verify(m.m.Graph, m.m.Net, m.m, rep)
	s.reg.ObserveStage("check", time.Since(checkStart))
	if len(vs) == 0 {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// pipelineHTTPError maps pipeline failures to HTTP statuses: deadline
// expiry is 504, cancellation 499 (client closed), oracle violations
// 422, everything else 500.
func pipelineHTTPError(err error) *httpError {
	var herr *httpError
	if errors.As(err, &herr) {
		return herr
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{status: http.StatusGatewayTimeout, msg: err.Error()}
	case errors.Is(err, context.Canceled):
		return &httpError{status: 499, msg: err.Error()}
	}
	var verr *check.ViolationError
	if errors.As(err, &verr) {
		return unprocessable("%v", err)
	}
	var fpe *FlightPanicError
	if errors.As(err, &fpe) {
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	var perr *core.PipelineError
	if errors.As(err, &perr) {
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return unprocessable("%v", err)
}
