// Package client is a retrying HTTP client for the oregami mapping
// daemon (oregami serve). It exists so tools and embedders can survive
// the daemon's transient states — admission-control 429s, drains,
// restarts mid-deploy — without hand-rolling backoff at every call
// site: Map retries retryable failures with capped exponential backoff
// plus jitter, honors the server's adaptive Retry-After header, bounds
// every attempt with its own timeout, and stops the moment the caller's
// context is done.
//
// The wire types here deliberately duplicate the subset of
// internal/serve's JSON schema that clients consume rather than
// importing the server package: the wire contract, not the server's Go
// types, is the interface.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// MapOptions is the v2 options envelope of POST /v1/map: the subset of
// the server's options schema that clients typically set.
type MapOptions struct {
	// Algo picks the MAPPER class/algorithm: canned, systolic,
	// group-theoretic, arbitrary, multilevel, or recursive-bisection
	// (empty = auto-dispatch).
	Algo        string `json:"algo,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	TimeoutMS   int    `json:"timeout_ms,omitempty"`
	// Check runs the server's post-condition oracle on the mapping;
	// NoCache bypasses the server's result cache lookup.
	Check   bool `json:"check,omitempty"`
	NoCache bool `json:"nocache,omitempty"`
}

// MapRequest is the body of POST /v1/map.
type MapRequest struct {
	Source   string         `json:"source,omitempty"`
	Workload string         `json:"workload,omitempty"`
	Bindings map[string]int `json:"bindings,omitempty"`
	Net      string         `json:"net"`
	Options  *MapOptions    `json:"options,omitempty"`
}

// MapResponse is the subset of a successful POST /v1/map body that
// clients consume.
type MapResponse struct {
	APIVersion  string `json:"apiVersion"`
	Workload    string `json:"workload"`
	Net         string `json:"net"`
	Tasks       int    `json:"tasks"`
	Procs       int    `json:"procs"`
	Class       string `json:"class"`
	Method      string `json:"method"`
	Assignment  []int  `json:"assignment"`
	Fingerprint string `json:"fingerprint"`
	Cache       string `json:"cache"`
	// Node is the cluster node that produced the result; Proxied is set
	// when the answering node fetched it from the key's owner. Both are
	// empty outside cluster mode.
	Node       string   `json:"node,omitempty"`
	Proxied    bool     `json:"proxied,omitempty"`
	Checked    bool     `json:"checked,omitempty"`
	Violations []string `json:"violations,omitempty"`
	ComputeMS  float64  `json:"compute_ms"`
	ElapsedMS  float64  `json:"elapsed_ms"`
	// Error carries a failed streaming-batch item's error line.
	Error string `json:"error,omitempty"`
}

// BatchItem is one NDJSON line of a streaming POST /v1/map/batch
// response: the item's MapResponse plus its index in the request array
// (items arrive in completion order, not request order).
type BatchItem struct {
	Index int `json:"index"`
	MapResponse
}

// Stats is the counter subset of GET /v1/stats?json=1 that tools read.
type Stats struct {
	Requests         int64   `json:"requests"`
	Rejected         int64   `json:"rejected"`
	Errors           int64   `json:"errors"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheCorrupt     int64   `json:"cache_corrupt"`
	WarmHits         int64   `json:"warm_hits"`
	PersistWrites    int64   `json:"persist_writes"`
	PersistErrors    int64   `json:"persist_errors"`
	PersistDropped   int64   `json:"persist_dropped"`
	StoreRecovered   int64   `json:"store_recovered"`
	StoreQuarantined int64   `json:"store_quarantined"`
	RecoveryMS       int64   `json:"recovery_ms"`
	Ready            int64   `json:"ready"`
	ProxiedIn        int64   `json:"proxied_in"`
	ProxiedOut       int64   `json:"proxied_out"`
	ProxyFallbacks   int64   `json:"proxy_fallbacks"`
	ProxyErrors      int64   `json:"proxy_errors"`
	PeersUp          int64   `json:"peers_up"`
	HitRatio         float64 `json:"hit_ratio"`
}

// APIError is a non-retryable server response: the request reached the
// daemon and was rejected on its merits (400, 404, 422, 500, ...).
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// RetriesExhaustedError wraps the last failure after every attempt was
// spent; errors.Unwrap exposes it.
type RetriesExhaustedError struct {
	Attempts int
	Last     error
}

func (e *RetriesExhaustedError) Error() string {
	return fmt.Sprintf("client: giving up after %d attempts: %v", e.Attempts, e.Last)
}

func (e *RetriesExhaustedError) Unwrap() error { return e.Last }

// Option configures a Client during New. Options are applied in
// order; each field left unset gets the default named on options.
type Option func(*options)

// WithHTTPClient overrides the transport; by default a dedicated client
// with generous idle-connection reuse is built.
func WithHTTPClient(hc *http.Client) Option {
	return func(o *options) { o.httpClient = hc }
}

// WithRetries bounds tries per call, first attempt included.
func WithRetries(n int) Option {
	return func(o *options) { o.maxAttempts = n }
}

// WithBackoff sets the exponential schedule's seed and cap.
func WithBackoff(base, max time.Duration) Option {
	return func(o *options) { o.baseBackoff, o.maxBackoff = base, max }
}

// WithTimeout bounds each individual attempt; the caller's context
// still bounds the call as a whole.
func WithTimeout(d time.Duration) Option {
	return func(o *options) { o.attemptTimeout = d }
}

// WithRand replaces the jitter source (tests).
func WithRand(fn func() float64) Option {
	return func(o *options) { o.rand = fn }
}

// WithSleep replaces the inter-attempt wait (tests).
func WithSleep(fn func(ctx context.Context, d time.Duration) error) Option {
	return func(o *options) { o.sleep = fn }
}

// WithOnRetry observes each scheduled retry.
func WithOnRetry(fn func(attempt int, wait time.Duration, cause error)) Option {
	return func(o *options) { o.onRetry = fn }
}

// options is a Client's configuration, filled by Option values.
type options struct {
	httpClient *http.Client
	// maxAttempts bounds tries per call (default 5).
	maxAttempts int
	// baseBackoff seeds the exponential schedule (default 100ms); the
	// wait before retry k is baseBackoff<<k, jittered, capped by
	// maxBackoff (default 5s). A server Retry-After overrides the
	// schedule (still capped).
	baseBackoff time.Duration
	maxBackoff  time.Duration
	// attemptTimeout bounds each individual attempt (default 30s).
	attemptTimeout time.Duration
	// rand is the jitter source (default math/rand).
	rand func() float64
	// sleep is the inter-attempt wait (default: the clock, waking early
	// when ctx is done).
	sleep   func(ctx context.Context, d time.Duration) error
	onRetry func(attempt int, wait time.Duration, cause error)
}

// Client talks to one oregami serve instance. Safe for concurrent use.
type Client struct {
	base string
	opt  options
}

// New builds a client for the daemon at base ("http://host:port" or a
// bare "host:port"), configured by zero or more Options applied in
// order.
func New(base string, opts ...Option) *Client {
	var opt options
	for _, o := range opts {
		o(&opt)
	}
	if base != "" && base[0] != 'h' {
		base = "http://" + base
	}
	if opt.httpClient == nil {
		opt.httpClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}}
	}
	if opt.maxAttempts <= 0 {
		opt.maxAttempts = 5
	}
	if opt.baseBackoff <= 0 {
		opt.baseBackoff = 100 * time.Millisecond
	}
	if opt.maxBackoff <= 0 {
		opt.maxBackoff = 5 * time.Second
	}
	if opt.attemptTimeout <= 0 {
		opt.attemptTimeout = 30 * time.Second
	}
	if opt.rand == nil {
		opt.rand = rand.Float64
	}
	if opt.sleep == nil {
		opt.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return &Client{base: base, opt: opt}
}

// BaseURL returns the server base URL the client targets.
func (c *Client) BaseURL() string { return c.base }

// retryableStatus reports whether a status code signals a transient
// server condition worth retrying: admission-control pushback (429),
// drain/recovery (503), and gateway-ish errors (502, 504). Plain 500s
// and all 4xx are the request's fault and retried never.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attemptError is one failed try plus the server's pacing hint, if any.
type attemptError struct {
	err        error
	retryable  bool
	retryAfter time.Duration
}

// Map requests one mapping, retrying transient failures.
func (c *Client) Map(ctx context.Context, req MapRequest) (*MapResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out *MapResponse
	doErr := c.withRetries(ctx, func(actx context.Context) attemptError {
		resp, ae := c.post(actx, "/v1/map", body)
		if ae.err != nil {
			return ae
		}
		out = resp
		return attemptError{}
	})
	if doErr != nil {
		return nil, doErr
	}
	return out, nil
}

// MapBatch streams a batch of mapping requests through POST
// /v1/map/batch as NDJSON, invoking onItem for every line as it
// arrives (completion order, each item carrying its request index).
// One attempt only — a half-consumed stream cannot be transparently
// retried; callers wanting retries should retry whole batches. A
// non-nil error from onItem aborts the stream and is returned.
func (c *Client) MapBatch(ctx context.Context, reqs []MapRequest, onItem func(BatchItem) error) error {
	body, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/map/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := c.opt.httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("client: batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp).err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item BatchItem
		if err := json.Unmarshal(line, &item); err != nil {
			return fmt.Errorf("client: decoding batch line: %w", err)
		}
		if err := onItem(item); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: reading batch stream: %w", err)
	}
	return nil
}

// Stats fetches the server's counter snapshot (retrying like Map, so a
// momentarily-restarting server does not fail a monitoring loop).
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	doErr := c.withRetries(ctx, func(actx context.Context) attemptError {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/v1/stats?json=1", nil)
		if err != nil {
			return attemptError{err: err}
		}
		resp, err := c.opt.httpClient.Do(req)
		if err != nil {
			return attemptError{err: err, retryable: true}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return statusError(resp)
		}
		var envelope struct {
			Stats Stats `json:"stats"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			return attemptError{err: fmt.Errorf("client: decoding stats: %w", err), retryable: true}
		}
		out = envelope.Stats
		return attemptError{}
	})
	if doErr != nil {
		return nil, doErr
	}
	return &out, nil
}

// WaitReady polls GET /readyz until the server reports ready, the
// context expires, or maxWait elapses (0 means context-bounded only).
// It absorbs connection errors, so it is safe to call against a server
// that has not bound its listener yet.
func (c *Client) WaitReady(ctx context.Context, maxWait time.Duration) error {
	if maxWait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, maxWait)
		defer cancel()
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.opt.httpClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if serr := c.opt.sleep(ctx, 25*time.Millisecond); serr != nil {
			return fmt.Errorf("client: server never became ready: %w", serr)
		}
	}
}

// post runs one POST attempt and classifies the outcome.
func (c *Client) post(ctx context.Context, path string, body []byte) (*MapResponse, attemptError) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, attemptError{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opt.httpClient.Do(req)
	if err != nil {
		// Transport-level failures (refused, reset, attempt timeout) are
		// exactly the restart window this client exists for.
		return nil, attemptError{err: err, retryable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, attemptError{err: fmt.Errorf("client: decoding response: %w", err), retryable: true}
	}
	return &out, attemptError{}
}

// statusError turns a non-200 response into a classified attemptError,
// reading the server's {"error": ...} body and Retry-After header.
func statusError(resp *http.Response) attemptError {
	var envelope struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&envelope); err == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	ae := attemptError{
		err:       &APIError{Status: resp.StatusCode, Message: msg},
		retryable: retryableStatus(resp.StatusCode),
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			ae.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// withRetries drives fn through the backoff schedule. Non-retryable
// failures surface unwrapped after the first attempt; retryable ones
// come back as *RetriesExhaustedError once the budget is spent.
func (c *Client) withRetries(ctx context.Context, fn func(ctx context.Context) attemptError) error {
	var last error
	for attempt := 0; attempt < c.opt.maxAttempts; attempt++ {
		actx, cancel := context.WithTimeout(ctx, c.opt.attemptTimeout)
		ae := fn(actx)
		cancel()
		if ae.err == nil {
			return nil
		}
		last = ae.err
		if !ae.retryable {
			return last
		}
		if ctx.Err() != nil {
			return &RetriesExhaustedError{Attempts: attempt + 1, Last: errors.Join(last, ctx.Err())}
		}
		if attempt == c.opt.maxAttempts-1 {
			break
		}
		wait := c.backoff(attempt, ae.retryAfter)
		if c.opt.onRetry != nil {
			c.opt.onRetry(attempt+1, wait, ae.err)
		}
		if err := c.opt.sleep(ctx, wait); err != nil {
			return &RetriesExhaustedError{Attempts: attempt + 1, Last: errors.Join(last, err)}
		}
	}
	return &RetriesExhaustedError{Attempts: c.opt.maxAttempts, Last: last}
}

// backoff computes the wait before retrying attempt (0-based): the
// server's Retry-After when given, else BaseBackoff<<attempt with up to
// 50% random jitter subtracted (decorrelating synchronized clients),
// everything capped at MaxBackoff.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if retryAfter > c.opt.maxBackoff {
			return c.opt.maxBackoff
		}
		return retryAfter
	}
	d := c.opt.baseBackoff << uint(attempt)
	if d > c.opt.maxBackoff || d <= 0 {
		d = c.opt.maxBackoff
	}
	jitter := time.Duration(c.opt.rand() * float64(d) * 0.5)
	return d - jitter
}
