// Package serve is the OREGAMI mapping service: a long-running HTTP
// daemon (`oregami serve`) that turns the MAPPER library into a system.
// It memoizes completed mappings in a content-addressed LRU cache keyed
// by (canonical LaRCS program, bindings, network, options), deduplicates
// identical in-flight requests with singleflight, bounds concurrency
// with an admission-controlled worker pool (full queue -> 429 +
// Retry-After), flows per-request deadlines into the core pipeline's
// context/StageTimeout ladder, and exports first-class observability:
// per-stage latency histograms, cache hit ratios, and in-flight gauges
// via /debug/vars, pprof, and a human GET /v1/stats.
package serve

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oregami/internal/analysis"
	"oregami/internal/cluster"
	"oregami/internal/serve/stats"
	"oregami/internal/store"
	"oregami/internal/workload"
)

// Config tunes the mapping service. Zero values take the documented
// defaults.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:8080"; ":0" picks a
	// free port (see Server.Addr).
	Addr string
	// Workers bounds concurrent mapping computations (default
	// GOMAXPROCS).
	Workers int
	// Parallel is the per-request worker budget for MAPPER's parallel
	// hot paths. The default divides the machine between the pool's
	// workers — max(1, GOMAXPROCS/Workers) — so full concurrent load
	// never oversubscribes cores; a lone request on an idle server can
	// raise Workers=1 instead to get the whole machine. Requests may
	// lower their own budget via options.parallelism but never exceed
	// this cap. Negative means 1 (sequential).
	Parallel int
	// Queue bounds requests waiting for a worker; a request beyond
	// Workers+Queue is rejected with 429 (default 64; negative means no
	// queue at all — reject whenever every worker is busy).
	Queue int
	// CacheBytes is the result cache budget (default 64 MiB; negative
	// disables caching).
	CacheBytes int64
	// RequestTimeout caps every request's pipeline deadline (default
	// 30s); requests may shorten it via options.timeout_ms.
	RequestTimeout time.Duration
	// StageTimeout bounds the MWM contraction stage (0 disables).
	StageTimeout time.Duration
	// MaxTasks/MaxEdges bound the LaRCS expansion per request
	// (defaults 1<<20 / 1<<22, enforced by larcs.Limits).
	MaxTasks, MaxEdges int
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// AddrFile, when set, receives the bound address after listen —
	// how scripts discover the port behind ":0".
	AddrFile string
	// MaxBatch bounds /v1/map/batch request counts (default 64).
	MaxBatch int
	// Persist enables the disk-backed cache (internal/store): completed
	// mappings are written behind the request path and reloaded on the
	// next boot, so a restart is a warm start. Setting StateDir implies
	// Persist.
	Persist bool
	// StateDir is where the persistent store lives (default
	// "oregami.state" when Persist is set without a directory).
	StateDir string
	// StoreBytes is the persistent store's disk budget (default 256 MiB).
	StoreBytes int64
	// NodeID names this instance in a cluster (the -node-id flag). It
	// must be a key of Peers when Peers is set; standalone servers leave
	// both empty.
	NodeID string
	// Peers is the static cluster membership, node id -> host:port,
	// including this node (parsed from the -peers flag with
	// cluster.ParsePeers). Two or more entries enable cluster mode:
	// cache keys are sharded across the members by rendezvous hashing
	// and local misses are proxied to their owner.
	Peers map[string]string
	// ProbeInterval is the steady-state peer health probe cadence
	// (default 1s; probes back off while a peer is down).
	ProbeInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Parallel == 0 {
		c.Parallel = runtime.GOMAXPROCS(0) / c.Workers
	}
	if c.Parallel < 1 {
		c.Parallel = 1
	}
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.StateDir != "" {
		c.Persist = true
	}
	if c.Persist && c.StateDir == "" {
		c.StateDir = "oregami.state"
	}
	return c
}

// Server is the mapping service. Create with New, serve with
// ListenAndServe (or mount Handler under a test server).
type Server struct {
	cfg      Config
	reg      *stats.Registry
	cache    *resultCache
	pool     *workerPool
	flights  flightGroup
	mux      *http.ServeMux
	draining atomic.Bool
	// cluster is the multi-node layer (nil standalone); initErr holds a
	// Config validation failure New cannot return (its signature is
	// load-bearing across the repo) — ListenAndServe surfaces it.
	cluster *cluster.Cluster
	initErr error
	// computeHook, when set by a test, runs at the top of every
	// computation; a non-nil return aborts the request with that error.
	// It exists so streaming/cancellation tests can make computations
	// block deterministically.
	computeHook func(ctx context.Context) error
	// ready flips once the server can usefully serve: immediately for
	// in-memory-only servers, after store recovery + warm load when
	// persistence is on. /readyz reports it; /healthz is liveness only.
	ready atomic.Bool

	// Persistence (nil / unused unless cfg.Persist).
	store         *store.Store
	persistCh     chan *cacheEntry
	persistDone   chan struct{}
	openOnce      sync.Once
	closeOnce     sync.Once
	pmu           sync.Mutex // guards persistClosed vs. in-flight persist()
	persistClosed bool

	mu   sync.Mutex
	ln   net.Listener
	hsrv *http.Server
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := stats.New()
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		cache: newResultCache(cfg.CacheBytes, reg),
		pool:  newWorkerPool(cfg.Workers, cfg.Queue, reg),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/map", s.handleMap)
	s.mux.HandleFunc("POST /v1/map/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/vet", s.handleVet)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	publishExpvar(reg)
	if len(cfg.Peers) > 0 || cfg.NodeID != "" {
		cl, err := cluster.New(cfg.NodeID, cfg.Peers, cluster.Options{
			ProbeInterval: cfg.ProbeInterval,
			OnPeerChange: func(id string, up bool) {
				if s.cluster != nil {
					s.reg.PeersUp.Store(int64(s.cluster.UpPeers()))
				}
			},
		})
		if err != nil {
			s.initErr = err
		} else {
			s.cluster = cl
			reg.PeersUp.Store(int64(cl.UpPeers()))
		}
	}
	if cfg.Persist {
		s.persistCh = make(chan *cacheEntry, 256)
		s.persistDone = make(chan struct{})
	} else {
		s.setReady()
	}
	return s
}

func (s *Server) setReady() {
	s.ready.Store(true)
	s.reg.Ready.Store(1)
}

// nodeID is this instance's cluster identity, "" standalone.
func (s *Server) nodeID() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.Self()
}

// Cluster exposes the multi-node layer (nil standalone) — tests and the
// CLI use it for membership introspection.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// expvar's registry is process-global and Publish panics on duplicates,
// so the package publishes one "oregami_serve" Func that reads whichever
// server registered last (tests spin up several servers; in production
// there is exactly one).
var expvarReg atomic.Pointer[stats.Registry]
var expvarOnce sync.Once

func publishExpvar(reg *stats.Registry) {
	expvarReg.Store(reg)
	expvarOnce.Do(func() {
		expvar.Publish("oregami_serve", expvar.Func(func() interface{} {
			if r := expvarReg.Load(); r != nil {
				return r.Snapshot()
			}
			return nil
		}))
	})
}

// Handler returns the service's HTTP handler (useful for tests).
func (s *Server) Handler() http.Handler { return s.mux }

// verifyRecord is the store's recovery-time semantic check: the payload
// must decode as a MapResponse whose served fingerprint digest matches
// the hash of the record's stored full fingerprint. A record failing
// this is quarantined by the store, never loaded.
func verifyRecord(rec store.Record) error {
	var resp MapResponse
	if err := json.Unmarshal(rec.Payload, &resp); err != nil {
		return fmt.Errorf("payload: %w", err)
	}
	if resp.Fingerprint == "" || hashHex(rec.Fingerprint) != resp.Fingerprint {
		return fmt.Errorf("serve: fingerprint mismatch for %.16s", rec.Key)
	}
	return nil
}

// OpenStore opens the persistent store at StateDir, replays and
// fingerprint-verifies its WAL and segments, warm-loads the surviving
// entries into the in-memory cache, starts the write-behind persister,
// and marks the server ready. It is a no-op without Persist, idempotent
// otherwise. ListenAndServe calls it in the background after binding so
// /readyz is observable (503 "recovering") while recovery runs;
// Handler-based tests call it directly for a deterministic warm start.
func (s *Server) OpenStore() error {
	var err error
	s.openOnce.Do(func() { err = s.openStore() })
	return err
}

func (s *Server) openStore() error {
	if !s.cfg.Persist {
		s.setReady()
		return nil
	}
	start := time.Now()
	st, rep, err := store.Open(s.cfg.StateDir, store.Options{
		MaxBytes: s.cfg.StoreBytes,
		Verify:   verifyRecord,
	})
	if err != nil {
		return fmt.Errorf("serve: open store: %w", err)
	}
	s.store = st
	for _, rec := range rep.Records {
		var resp MapResponse
		if jerr := json.Unmarshal(rec.Payload, &resp); jerr != nil {
			continue // verifyRecord already vouched; belt and suspenders
		}
		s.cache.put(&cacheEntry{
			key:  rec.Key,
			resp: resp,
			fp:   rec.Fingerprint,
			size: int64(len(rec.Payload) + len(rec.Fingerprint)),
		})
	}
	s.reg.StoreRecovered.Store(int64(len(rep.Records)))
	s.reg.StoreQuarantined.Store(int64(rep.Quarantined))
	s.reg.RecoveryMS.Store(int64(time.Since(start) / time.Millisecond))
	go s.persister()
	s.setReady()
	return nil
}

// persist enqueues a computed entry for write-behind persistence. It
// never blocks the request path: a full queue drops the write (counted)
// rather than adding latency.
func (s *Server) persist(e *cacheEntry) {
	if s.persistCh == nil {
		return
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.persistClosed {
		return
	}
	select {
	case s.persistCh <- e:
	default:
		s.reg.PersistDropped.Add(1)
	}
}

// persister drains the write-behind queue into the store.
func (s *Server) persister() {
	defer close(s.persistDone)
	for e := range s.persistCh {
		payload, err := json.Marshal(e.resp)
		if err != nil {
			s.reg.PersistErrors.Add(1)
			continue
		}
		if err := s.store.Put(store.Record{Key: e.key, Fingerprint: e.fp, Payload: payload}); err != nil {
			s.reg.PersistErrors.Add(1)
			continue
		}
		s.reg.PersistWrites.Add(1)
	}
}

// Close flushes the write-behind queue and closes the persistent store.
// Safe to call multiple times and on servers without persistence;
// ListenAndServe calls it after the drain.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.cluster != nil {
			s.cluster.Stop()
		}
		if s.persistCh != nil {
			s.pmu.Lock()
			s.persistClosed = true
			s.pmu.Unlock()
			close(s.persistCh)
			if s.store != nil {
				<-s.persistDone
			}
		}
		if s.store != nil {
			err = s.store.Close()
		}
	})
	return err
}

// Stats returns the server's metrics registry.
func (s *Server) Stats() *stats.Registry { return s.reg }

// Addr returns the bound listen address after ListenAndServe has
// started listening, else "".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ListenAndServe binds the configured address and serves until ctx is
// canceled (SIGTERM in the CLI), then drains gracefully: the health
// check flips to 503, in-flight requests get DrainTimeout to finish, and
// a clean drain returns nil.
func (s *Server) ListenAndServe(ctx context.Context) error {
	if s.initErr != nil {
		return s.initErr
	}
	if s.cluster != nil {
		s.cluster.Start()
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen on %q: %w", s.cfg.Addr, err)
	}
	if s.cfg.AddrFile != "" {
		if err := os.WriteFile(s.cfg.AddrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("serve: write addr file: %w", err)
		}
	}
	hsrv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	s.ln, s.hsrv = ln, hsrv
	s.mu.Unlock()

	// Store recovery runs after the bind so liveness (/healthz) and
	// readiness (/readyz -> 503 "recovering") are observable while the
	// WAL replays. An unopenable store fails the whole server — better
	// a loud crash-loop than silently serving without durability.
	openErr := make(chan error, 1)
	go func() {
		if err := s.OpenStore(); err != nil {
			openErr <- err
			hsrv.Close()
			return
		}
		openErr <- nil
	}()

	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.draining.Store(true)
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		shutdownErr <- hsrv.Shutdown(dctx)
	}()
	serveErr := hsrv.Serve(ln)
	closeErr := s.Close()
	if oerr := <-openErr; oerr != nil {
		return oerr
	}
	if serveErr != nil && serveErr != http.ErrServerClosed {
		return serveErr
	}
	if ctx.Err() != nil {
		if err := <-shutdownErr; err != nil {
			return err
		}
		return closeErr
	}
	return closeErr
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders an httpError, including Retry-After when set.
func (s *Server) writeError(w http.ResponseWriter, herr *httpError) {
	s.reg.Errors.Add(1)
	if herr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(herr.retryAfter.Seconds()+0.5)))
	}
	writeJSON(w, herr.status, ErrorResponse{APIVersion: APIVersion, Error: herr.msg})
}

// unknownFieldRe matches encoding/json's unknown-field error so the 400
// body can name the offending field directly.
var unknownFieldRe = regexp.MustCompile(`json: unknown field "([^"]*)"`)

// decodeJSON reads a bounded JSON body into v. Unknown fields are
// rejected (400 naming the field) so schema typos — "binding" for
// "bindings", options at the wrong nesting level — fail loudly instead
// of being silently dropped.
func decodeJSON(r *http.Request, v interface{}) *httpError {
	dec := json.NewDecoder(io.LimitReader(r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if m := unknownFieldRe.FindStringSubmatch(err.Error()); m != nil {
			return badRequest("unknown request field %q", m[1])
		}
		return badRequest("decode body: %v", err)
	}
	return nil
}

// serveOne runs the full request lifecycle for one MapRequest: resolve,
// ownership routing (cluster mode), cache lookup, admission,
// singleflight-deduplicated computation, cache fill, and the optional
// oracle check. It powers both /v1/map and each /v1/map/batch item.
// forwarded is the X-Oregami-Forwarded peer id when this request
// arrived via a proxy hop — such requests are always served locally.
func (s *Server) serveOne(ctx context.Context, req *MapRequest, queryCheck bool, forwarded string) (MapResponse, *httpError) {
	start := time.Now()
	r, herr := s.resolve(req)
	if herr != nil {
		return MapResponse{}, herr
	}
	r.opts.Check = r.opts.Check || queryCheck
	s.reg.Requests.Add(1)

	// Cluster routing: a non-owner forwards the request to the key's
	// owner in one hop (the owner's cache is the shard of record), unless
	// the request already hopped (loop guard), bypasses the cache, or the
	// owner's circuit is open. Any proxy failure degrades to local
	// computation below — a dead owner costs warm capacity, not
	// availability.
	if s.cluster != nil && forwarded == "" && !r.opts.NoCache {
		if owner := s.cluster.Owner(r.key); owner != s.cluster.Self() {
			if resp, ok := s.proxyToOwner(ctx, req, r, owner); ok {
				resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
				s.reg.ObserveStage("total", time.Since(start))
				return resp, nil
			}
			s.reg.ProxyFallbacks.Add(1)
		}
	}
	if forwarded != "" {
		s.reg.ProxiedIn.Add(1)
	}

	var entry *cacheEntry
	how := "miss"
	if r.opts.NoCache {
		s.reg.CacheBypass.Add(1)
		how = "bypass"
		e, err := s.computeAdmitted(ctx, r)
		if err != nil {
			return MapResponse{}, asHTTPError(err)
		}
		entry = e
		s.cache.put(e)
		s.persist(e)
	} else {
		// The cache lookup happens inside the flight, so each request
		// performs exactly one lookup (one hit or miss count) and
		// concurrent identical misses collapse onto one computation.
		// Checked requests need a live mapping for the oracle, so a
		// warm-restored (mapping-less) entry counts as a miss for them.
		hit := false
		e, err, shared := s.flights.do(r.key, func() (*cacheEntry, error) {
			if e, ok := s.cache.get(r.key, r.opts.Check); ok {
				hit = true
				return e, nil
			}
			e, cerr := s.computeAdmitted(ctx, r)
			if cerr != nil {
				return nil, cerr
			}
			s.cache.put(e)
			s.persist(e)
			return e, nil
		})
		if err != nil {
			return MapResponse{}, asHTTPError(err)
		}
		entry = e
		switch {
		case shared:
			// hit belongs to the flight leader; followers report the
			// dedup instead.
			s.reg.Deduped.Add(1)
			how = "shared"
		case hit:
			how = "hit"
		}
	}

	resp := entry.resp // struct copy; slices shared read-only
	resp.Cache = how
	if r.opts.Check {
		resp.Checked = true
		if violations := s.runOracle(entry); len(violations) > 0 {
			// A cached mapping failing the oracle means the entry went
			// bad (or the pipeline produced a bad mapping): drop it.
			s.cache.remove(entry.key)
			resp.Violations = violations
			return resp, unprocessable("mapping failed the post-condition oracle with %d violation(s)", len(violations))
		}
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.reg.ObserveStage("total", time.Since(start))
	return resp, nil
}

// proxyToOwner forwards a request to the node owning its cache key and
// adapts the answer. Only a clean 200 with a decodable, fingerprinted
// body is used; anything else — a transport error (which trips the
// owner's circuit), a non-200, an undecodable payload — reports false
// and the caller falls back to local computation. The proxied response
// keeps the owner's Cache disposition and Node id and is not cached
// here: the owner owns that slice of the key space.
func (s *Server) proxyToOwner(ctx context.Context, req *MapRequest, r *resolved, owner string) (MapResponse, bool) {
	if !s.cluster.Healthy(owner) {
		return MapResponse{}, false
	}
	body, err := json.Marshal(req)
	if err != nil {
		return MapResponse{}, false
	}
	path := "/v1/map"
	if r.opts.Check {
		path += "?check=1"
	}
	payload, status, err := s.cluster.Forward(ctx, owner, path, body)
	if err != nil || status != http.StatusOK {
		s.reg.ProxyErrors.Add(1)
		return MapResponse{}, false
	}
	var resp MapResponse
	if err := json.Unmarshal(payload, &resp); err != nil || resp.Fingerprint == "" {
		s.reg.ProxyErrors.Add(1)
		return MapResponse{}, false
	}
	resp.Proxied = true
	s.reg.ProxiedOut.Add(1)
	return resp, true
}

// computeAdmitted passes a computation through admission control and the
// worker pool, then runs it.
func (s *Server) computeAdmitted(ctx context.Context, r *resolved) (*cacheEntry, error) {
	release, err := s.pool.acquire(ctx)
	if err != nil {
		if err == errBusy {
			return nil, &httpError{
				status:     http.StatusTooManyRequests,
				msg:        err.Error(),
				retryAfter: s.pool.retryAfter(),
			}
		}
		return nil, pipelineHTTPError(err)
	}
	defer release()
	return s.compute(ctx, r)
}

// asHTTPError normalizes computation errors to httpErrors.
func asHTTPError(err error) *httpError {
	if herr, ok := err.(*httpError); ok {
		return herr
	}
	return pipelineHTTPError(err)
}

// forwardedFrom extracts the single-hop proxy marker. A marker naming
// this node itself means a forwarded request came back — two nodes
// sharing an id or a proxy loop, misconfiguration either way — and is
// rejected rather than served twice.
func (s *Server) forwardedFrom(r *http.Request) (string, *httpError) {
	from := r.Header.Get(cluster.ForwardHeader)
	if from == "" {
		return "", nil
	}
	if s.cluster != nil && from == s.cluster.Self() {
		return "", badRequest("forwarded loop: request was already forwarded by this node (%q)", from)
	}
	return from, nil
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	s.reg.InFlight.Add(1)
	defer s.reg.InFlight.Add(-1)
	var req MapRequest
	if herr := decodeJSON(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	forwarded, herr := s.forwardedFrom(r)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	resp, herr := s.serveOne(r.Context(), &req, r.URL.Query().Get("check") == "1", forwarded)
	if herr != nil {
		if len(resp.Violations) > 0 {
			// Oracle failures return the full response body so the
			// client sees the violations, not just the error line.
			resp.Error = herr.msg
			writeJSON(w, herr.status, resp)
			s.reg.Errors.Add(1)
			return
		}
		s.writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch fans the items out across the worker pool and streams each
// result the moment it completes — NDJSON by default, SSE behind
// Accept: text/event-stream — so batch memory is O(1) per item and the
// first result arrives before the slowest computes. Items are framed as
// BatchItem (completion order, index for reassembly). A client that
// disconnects mid-stream cancels the remaining computations through the
// request context.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	s.reg.InFlight.Add(1)
	defer s.reg.InFlight.Add(-1)
	var reqs []MapRequest
	if herr := decodeJSON(r, &reqs); herr != nil {
		s.writeError(w, herr)
		return
	}
	if len(reqs) == 0 {
		s.writeError(w, badRequest("batch is empty"))
		return
	}
	if len(reqs) > s.cfg.MaxBatch {
		s.writeError(w, badRequest("batch of %d exceeds the maximum of %d", len(reqs), s.cfg.MaxBatch))
		return
	}
	forwarded, herr := s.forwardedFrom(r)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	queryCheck := r.URL.Query().Get("check") == "1"
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	ctx := r.Context()

	items := make(chan BatchItem)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, herr := s.serveOne(ctx, &reqs[i], queryCheck, forwarded)
			if herr != nil {
				resp.Error = herr.msg
				s.reg.Errors.Add(1)
			}
			resp.APIVersion = APIVersion
			select {
			case items <- BatchItem{Index: i, MapResponse: resp}:
			case <-ctx.Done():
				// The client is gone (or the server-side deadline fired):
				// drop the result instead of blocking forever.
			}
		}(i)
	}
	go func() {
		wg.Wait()
		close(items)
	}()

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	broken := false
	for item := range items {
		if broken {
			continue // keep draining so the workers can finish/cancel
		}
		line, err := json.Marshal(item)
		if err != nil {
			continue
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", line)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", line)
		}
		if err != nil {
			broken = true
			continue
		}
		s.reg.StreamedItems.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if sse && !broken {
		fmt.Fprint(w, "event: done\ndata: {}\n\n")
	}
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req VetRequest
	if herr := decodeJSON(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	if req.Source == "" {
		s.writeError(w, badRequest("source is required"))
		return
	}
	diags := analysis.VetSource(req.Source)
	if diags == nil {
		diags = []analysis.Diag{}
	}
	writeJSON(w, http.StatusOK, VetResponse{
		APIVersion:  APIVersion,
		Diagnostics: diags,
		HasErrors:   analysis.HasErrors(diags),
	})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	var out []WorkloadInfo
	for _, wl := range workload.All() {
		out = append(out, WorkloadInfo{Name: wl.Name, About: wl.About})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, WorkloadsResponse{APIVersion: APIVersion, Workloads: out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("json") == "1" {
		writeJSON(w, http.StatusOK, StatsResponse{APIVersion: APIVersion, Stats: snap})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, snap.Render())
}

// handleHealthz is pure liveness: the process is up and the handler
// runs. It stays 200 while draining (the process is alive and finishing
// work) — readiness is /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 while store recovery is replaying the
// WAL at boot and 503 once a drain begins, 200 in between. Load
// balancers should route on this, not on /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	}
}

// rejectDraining refuses new mapping work during graceful shutdown.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{APIVersion: APIVersion, Error: "server is draining"})
	return true
}
