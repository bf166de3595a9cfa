package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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
	// concurrent identical computation), "bypass" (nocache), or
	// "degraded" (computed, but a stage fell back to a cheaper
	// algorithm under its deadline, so the result was not stored).
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

// mappingBody is the part of a MapResponse that every answer from one
// cache entry shares: all of it but the per-request fields (cache,
// checked, violations, elapsed_ms, proxied, error). An entry marshals it
// once, compact; an answer writes those bytes with its own fields
// spliced in after the opening brace (see answer), so the object a
// client reads decodes as a MapResponse. Its fields, tags and order
// follow MapResponse's.
type mappingBody struct {
	APIVersion  string          `json:"apiVersion"`
	Workload    string          `json:"workload"`
	Net         string          `json:"net"`
	Tasks       int             `json:"tasks"`
	Procs       int             `json:"procs"`
	Class       string          `json:"class"`
	Method      string          `json:"method"`
	Trail       []string        `json:"trail,omitempty"`
	Assignment  []int           `json:"assignment"`
	Metrics     *MetricsSummary `json:"metrics,omitempty"`
	Fingerprint string          `json:"fingerprint"`
	ComputeMS   float64         `json:"compute_ms"`
	Node        string          `json:"node,omitempty"`
}

// emptyBody is the body of a failed batch item that has no mapping: the
// zero mappingBody, stamped with the schema version.
var emptyBody = mustMarshal(mappingBody{APIVersion: APIVersion})

func mustMarshal(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("serve: " + err.Error())
	}
	return b
}

// answer is one mapping response on its way to the wire: a stored body
// and this request's own fields.
type answer struct {
	body       []byte // a marshalled mappingBody
	cache      string
	checked    bool
	violations []string
	elapsedMS  float64
	proxied    bool
	err        string
}

// appendHead appends the start of the answer's JSON object: the opening
// brace, "index" when index >= 0 (a batch item), and the per-request
// fields with MapResponse's omitempty rules, each followed by a comma.
// The object continues with body[1:], the stored body past its own
// brace. Only the rare violations and error strings go through
// encoding/json.
func (a *answer) appendHead(dst []byte, index int) []byte {
	dst = append(dst, '{')
	if index >= 0 {
		dst = strconv.AppendInt(append(dst, `"index":`...), int64(index), 10)
		dst = append(dst, ',')
	}
	// cache is one of a few plain words, except on a proxied answer,
	// where it is the owner's and is escaped like any outside string.
	dst = appendJSONString(append(dst, `"cache":`...), a.cache)
	if a.checked {
		dst = append(dst, `,"checked":true`...)
	}
	if len(a.violations) > 0 {
		dst = append(append(dst, `,"violations":`...), mustMarshal(a.violations)...)
	}
	// Shortest round-trip digits without an exponent: a JSON number
	// that decodes to the same float64 encoding/json would have written.
	dst = strconv.AppendFloat(append(dst, `,"elapsed_ms":`...), a.elapsedMS, 'f', -1, 64)
	if a.proxied {
		dst = append(dst, `,"proxied":true`...)
	}
	if a.err != "" {
		dst = appendJSONString(append(dst, `,"error":`...), a.err)
	}
	return append(dst, ',')
}

// appendJSONString appends s as a JSON string. Plain printable ASCII is
// copied between quotes; anything else is left to encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return append(dst, mustMarshal(s)...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
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
	name      string // workload name or "source"
	prog      *larcs.Program
	canonical string
	bindings  map[string]int
	opts      MapRequestOptions
	key       string
	timeout   time.Duration
	// req is the request's validated MAPPER options and target network,
	// with the stage deadline and worker budget clamped to the server's;
	// compute adds the program, the context and the stage observer.
	req core.Request
}

// requestFields spells each core.Request field Validate can reject as
// the JSON field it came from.
var requestFields = map[string]string{
	"Force":           "options.algo",
	"Parallelism":     "options.parallelism",
	"MaxTasksPerProc": "options.max_tasks_per_proc",
	"StageTimeout":    "options.stage_timeout_ms",
}

// resolve validates and canonicalizes one request. It validates the
// options, parses the program (but does not expand it), builds the
// target network — both through the front-end memos — merges workload
// default bindings, clamps deadlines and the worker budget to the
// server's configuration, and derives the content-addressed cache key.
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
	r := &resolved{name: "source"}
	if req.Options != nil {
		r.opts = *req.Options
	}
	if r.opts.TimeoutMS < 0 {
		return nil, badRequest("options.timeout_ms: must be >= 0, got %d", r.opts.TimeoutMS)
	}
	r.req = core.Request{
		Force:           core.Class(r.opts.Algo),
		MaxTasksPerProc: r.opts.MaxTasksPerProc,
		Refine:          r.opts.Refine,
		Route:           route.Options{UseMaximum: r.opts.MaximumMatchingRouter},
		StageTimeout:    time.Duration(r.opts.StageTimeoutMS) * time.Millisecond,
		Parallelism:     r.opts.Parallelism,
	}
	if err := r.req.Validate(); err != nil {
		var fe *core.FieldError
		if errors.As(err, &fe) {
			return nil, badRequest("%s: %s", requestFields[fe.Field], fe.Reason)
		}
		return nil, badRequest("%v", err)
	}
	// "auto" and "" are the same dispatcher behavior; Validate
	// normalizes so they share one cache entry.
	r.opts.Algo = string(r.req.Force)
	w := workload.Workload{Source: req.Source}
	if req.Workload != "" {
		var err error
		if w, err = workload.ByName(req.Workload); err != nil {
			return nil, badRequest("%v", err)
		}
		r.name = w.Name
	}
	r.bindings = w.Bindings(req.Bindings)
	// The program and the network come from the front-end memos
	// (memo.go) when this exact source or spec resolved before. A miss
	// is memoized only once the whole front end has succeeded, so a
	// failed resolve leaves both memos as they were.
	p, progHit := s.programs.get(w.Source)
	s.reg.CountFrontendMemo(progHit)
	if !progHit {
		prog, err := larcs.Parse(w.Source)
		if err != nil {
			return nil, unprocessable("parse: %v", err)
		}
		p = parsedProgram{prog: prog, canonical: larcs.Format(prog)}
	}
	r.prog, r.canonical = p.prog, p.canonical
	net, netHit := s.networks.get(req.Net)
	s.reg.CountFrontendMemo(netHit)
	if !netHit {
		var err error
		if net, err = topology.ParseSpec(req.Net); err != nil {
			return nil, badRequest("%v", err)
		}
		s.networks.put(req.Net, net, networkCharge(net))
	}
	if !progHit {
		s.programs.put(w.Source, p, programCharge(w.Source, p))
	}
	r.req.Net = net
	// The effective budget is the server's per-request share of the
	// machine; a request may only lower it.
	if p := r.req.Parallelism; p == 0 || p > s.cfg.Parallel {
		r.req.Parallelism = s.cfg.Parallel
	}
	r.timeout = s.cfg.RequestTimeout
	if d := time.Duration(r.opts.TimeoutMS) * time.Millisecond; d > 0 && d < r.timeout {
		r.timeout = d
	}
	if d := r.req.StageTimeout; s.cfg.StageTimeout > 0 && (d == 0 || d > s.cfg.StageTimeout) {
		r.req.StageTimeout = s.cfg.StageTimeout
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
		Ctx:      ctx,
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, pipelineHTTPError(err)
		}
		return nil, unprocessable("compile: %v", err)
	}
	s.reg.ObserveStage("compile", time.Since(compileStart))

	mapStart := time.Now()
	mreq := r.req
	mreq.Compiled, mreq.Ctx, mreq.Observe = comp, ctx, s.reg.ObserveStage
	res, err := core.Map(mreq)
	if err != nil {
		return nil, pipelineHTTPError(err)
	}
	s.reg.ObserveStage("map", time.Since(mapStart))

	metricsStart := time.Now()
	rep, err := metrics.ComputeN(res.Mapping, r.req.Parallelism)
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
	digest := hashHex(fp)
	// The one marshal of this response: hits, the persister and a
	// restart all reuse these bytes.
	body, err := json.Marshal(mappingBody{
		APIVersion:  APIVersion,
		Workload:    r.name,
		Net:         r.req.Net.Name,
		Tasks:       comp.Graph.NumTasks,
		Procs:       r.req.Net.N,
		Class:       string(res.Class),
		Method:      m.Method,
		Trail:       res.Trail,
		Assignment:  assignment,
		Metrics:     summary,
		Fingerprint: digest,
		ComputeMS:   float64(time.Since(compileStart)) / float64(time.Millisecond),
		Node:        s.nodeID(),
	})
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: fmt.Sprintf("encode: %v", err)}
	}
	return &cacheEntry{
		key:      r.key,
		body:     body,
		digest:   digest,
		m:        m,
		fp:       fp,
		size:     entrySize(body, digest, fp, m),
		degraded: res.Degraded,
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
	vs := check.Run(m.m.Graph, m.m.Net, m.m, 1)
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
