// Package stats is the mapping service's observability layer: per-stage
// latency histograms, cache and admission counters, and in-flight
// gauges, all cheap enough to update on every request and exportable as
// one JSON snapshot (wired to /debug/vars by internal/serve) or as a
// human-readable table (GET /v1/stats).
package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// nBuckets covers 1µs .. ~137s in powers of two; slower observations
// land in the last bucket.
const nBuckets = 28

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// bucketFor maps a duration to its bucket: the smallest power-of-two
// microsecond bound that contains it.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	i := bits.Len64(uint64(us - 1)) // ceil(log2(us))
	if i >= nBuckets {
		return nBuckets - 1
	}
	return i
}

// Histogram is a fixed-bucket exponential latency histogram. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     time.Duration
	max     time.Duration
	buckets [nBuckets]uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.buckets[bucketFor(d)]++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding it — an overestimate by at most one bucket width
// (2x), which is plenty for dashboards. Zero observations report 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum uint64
	for i := 0; i < nBuckets; i++ {
		cum += h.buckets[i]
		if cum > rank {
			b := bucketBound(i)
			if b > h.max {
				return h.max
			}
			return b
		}
	}
	return h.max
}

// HistSnapshot is one histogram flattened for JSON export.
type HistSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Snapshot flattens the histogram under one lock acquisition.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, MaxMS: ms(h.max)}
	if h.count > 0 {
		s.MeanMS = ms(h.sum / time.Duration(h.count))
	}
	s.P50MS = ms(h.quantileLocked(0.50))
	s.P90MS = ms(h.quantileLocked(0.90))
	s.P99MS = ms(h.quantileLocked(0.99))
	return s
}

// Registry aggregates everything the service exports: request/cache/
// admission counters, gauges, and one latency histogram per named stage
// (compile, contract, embed, route, check, metrics, queue, total, ...).
type Registry struct {
	// Counters (monotonic).
	Requests       atomic.Int64 // requests accepted into the pipeline
	Rejected       atomic.Int64 // admission-control 429s
	Errors         atomic.Int64 // requests that failed
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheBypass    atomic.Int64 // nocache requests
	CacheEvictions atomic.Int64
	CacheCorrupt   atomic.Int64 // hits whose fingerprint failed verification
	Deduped        atomic.Int64 // singleflight followers
	WarmHits       atomic.Int64 // hits served from warm-restored (disk-loaded) entries

	// Front-end memo counters: one count per program or network lookup,
	// so a resolve that gets past parsing counts two.
	FrontendMemoHits   atomic.Int64 // parse/format or network build skipped
	FrontendMemoMisses atomic.Int64 // parsed or built afresh

	// Persistence counters (internal/store write-behind + recovery).
	PersistWrites    atomic.Int64 // entries durably appended to the store
	PersistErrors    atomic.Int64 // store appends that failed
	PersistDropped   atomic.Int64 // write-behind queue overflows
	StoreRecovered   atomic.Int64 // entries restored at the last boot
	StoreQuarantined atomic.Int64 // corrupt entries moved aside at the last boot

	// Cluster counters (internal/cluster sharding + miss proxying).
	ProxiedIn      atomic.Int64 // forwarded requests served for peers
	ProxiedOut     atomic.Int64 // local misses answered by the key's owner
	ProxyFallbacks atomic.Int64 // owner down/failed -> computed locally
	ProxyErrors    atomic.Int64 // forward attempts that failed
	StreamedItems  atomic.Int64 // batch items written as NDJSON/SSE lines

	// Gauges.
	InFlight   atomic.Int64 // requests between accept and response
	QueueDepth atomic.Int64 // requests waiting for a worker
	CacheBytes atomic.Int64
	CacheItems atomic.Int64
	RecoveryMS atomic.Int64 // wall time of the last WAL/segment recovery
	Ready      atomic.Int64 // 1 once recovery finished and the server admits traffic
	PeersUp    atomic.Int64 // cluster peers (excluding self) with a closed circuit

	mu     sync.Mutex
	stages map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{stages: make(map[string]*Histogram)}
}

// Stage returns the named stage histogram, creating it on first use.
func (r *Registry) Stage(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.stages[name]
	if !ok {
		h = &Histogram{}
		r.stages[name] = h
	}
	return h
}

// ObserveStage records one duration against the named stage.
func (r *Registry) ObserveStage(name string, d time.Duration) {
	r.Stage(name).Observe(d)
}

// CountFrontendMemo counts one front-end memo lookup.
func (r *Registry) CountFrontendMemo(hit bool) {
	if hit {
		r.FrontendMemoHits.Add(1)
	} else {
		r.FrontendMemoMisses.Add(1)
	}
}

// HitRatio returns hits / (hits + misses), or 0 before any lookup.
func (r *Registry) HitRatio() float64 {
	h, m := r.CacheHits.Load(), r.CacheMisses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Snapshot is the full registry flattened for JSON export.
type Snapshot struct {
	Requests       int64 `json:"requests"`
	Rejected       int64 `json:"rejected"`
	Errors         int64 `json:"errors"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheBypass    int64 `json:"cache_bypass"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheCorrupt   int64 `json:"cache_corrupt"`
	Deduped        int64 `json:"deduped"`
	WarmHits       int64 `json:"warm_hits"`

	FrontendMemoHits   int64 `json:"frontend_memo_hits"`
	FrontendMemoMisses int64 `json:"frontend_memo_misses"`

	PersistWrites    int64 `json:"persist_writes"`
	PersistErrors    int64 `json:"persist_errors"`
	PersistDropped   int64 `json:"persist_dropped"`
	StoreRecovered   int64 `json:"store_recovered"`
	StoreQuarantined int64 `json:"store_quarantined"`

	ProxiedIn      int64 `json:"proxied_in"`
	ProxiedOut     int64 `json:"proxied_out"`
	ProxyFallbacks int64 `json:"proxy_fallbacks"`
	ProxyErrors    int64 `json:"proxy_errors"`
	StreamedItems  int64 `json:"streamed_items"`
	PeersUp        int64 `json:"peers_up"`

	InFlight   int64 `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`
	CacheBytes int64 `json:"cache_bytes"`
	CacheItems int64 `json:"cache_items"`
	RecoveryMS int64 `json:"recovery_ms"`
	Ready      int64 `json:"ready"`

	HitRatio float64                 `json:"hit_ratio"`
	Stages   map[string]HistSnapshot `json:"stages"`
}

// Snapshot captures a consistent-enough view for export; counters are
// read individually, so the snapshot is not a transaction, which is fine
// for monitoring.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Requests:       r.Requests.Load(),
		Rejected:       r.Rejected.Load(),
		Errors:         r.Errors.Load(),
		CacheHits:      r.CacheHits.Load(),
		CacheMisses:    r.CacheMisses.Load(),
		CacheBypass:    r.CacheBypass.Load(),
		CacheEvictions: r.CacheEvictions.Load(),
		CacheCorrupt:   r.CacheCorrupt.Load(),
		Deduped:        r.Deduped.Load(),
		WarmHits:       r.WarmHits.Load(),

		FrontendMemoHits:   r.FrontendMemoHits.Load(),
		FrontendMemoMisses: r.FrontendMemoMisses.Load(),

		PersistWrites:    r.PersistWrites.Load(),
		PersistErrors:    r.PersistErrors.Load(),
		PersistDropped:   r.PersistDropped.Load(),
		StoreRecovered:   r.StoreRecovered.Load(),
		StoreQuarantined: r.StoreQuarantined.Load(),

		ProxiedIn:      r.ProxiedIn.Load(),
		ProxiedOut:     r.ProxiedOut.Load(),
		ProxyFallbacks: r.ProxyFallbacks.Load(),
		ProxyErrors:    r.ProxyErrors.Load(),
		StreamedItems:  r.StreamedItems.Load(),
		PeersUp:        r.PeersUp.Load(),

		InFlight:   r.InFlight.Load(),
		QueueDepth: r.QueueDepth.Load(),
		CacheBytes: r.CacheBytes.Load(),
		CacheItems: r.CacheItems.Load(),
		RecoveryMS: r.RecoveryMS.Load(),
		Ready:      r.Ready.Load(),
		HitRatio:   r.HitRatio(),
		Stages:     make(map[string]HistSnapshot),
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.stages))
	for name := range r.stages {
		names = append(names, name)
	}
	hists := make(map[string]*Histogram, len(names))
	for _, name := range names {
		hists[name] = r.stages[name]
	}
	r.mu.Unlock()
	for _, name := range names {
		s.Stages[name] = hists[name].Snapshot()
	}
	return s
}

// Render formats the snapshot as the human view behind GET /v1/stats:
// a counters block and a fixed-width per-stage latency table in sorted
// stage order.
func (s Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d  rejected %d  errors %d  in-flight %d  queued %d\n",
		s.Requests, s.Rejected, s.Errors, s.InFlight, s.QueueDepth)
	fmt.Fprintf(&b, "cache: hits %d  misses %d  bypass %d  evictions %d  corrupt %d  deduped %d\n",
		s.CacheHits, s.CacheMisses, s.CacheBypass, s.CacheEvictions, s.CacheCorrupt, s.Deduped)
	fmt.Fprintf(&b, "cache: %d items, %d bytes, hit ratio %.3f, warm hits %d\n", s.CacheItems, s.CacheBytes, s.HitRatio, s.WarmHits)
	fmt.Fprintf(&b, "frontend memo: hits %d  misses %d\n", s.FrontendMemoHits, s.FrontendMemoMisses)
	fmt.Fprintf(&b, "store: writes %d  errors %d  dropped %d  recovered %d  quarantined %d  recovery %dms  ready %d\n",
		s.PersistWrites, s.PersistErrors, s.PersistDropped, s.StoreRecovered, s.StoreQuarantined, s.RecoveryMS, s.Ready)
	fmt.Fprintf(&b, "cluster: peers-up %d  proxied-in %d  proxied-out %d  fallbacks %d  proxy-errors %d  streamed %d\n",
		s.PeersUp, s.ProxiedIn, s.ProxiedOut, s.ProxyFallbacks, s.ProxyErrors, s.StreamedItems)
	if len(s.Stages) == 0 {
		return b.String()
	}
	names := make([]string, 0, len(s.Stages))
	for name := range s.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %10s %10s %10s\n",
		"stage", "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms")
	for _, name := range names {
		h := s.Stages[name]
		fmt.Fprintf(&b, "%-10s %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			name, h.Count, h.MeanMS, h.P50MS, h.P90MS, h.P99MS, h.MaxMS)
	}
	return b.String()
}
