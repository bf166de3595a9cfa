package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// script serves a canned status sequence, then a success body.
type script struct {
	statuses   []int        // consumed one per request
	retryAfter string       // Retry-After header on non-200s, if set
	calls      atomic.Int64 // requests observed
}

func (sc *script) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := int(sc.calls.Add(1)) - 1
		if n < len(sc.statuses) {
			if sc.retryAfter != "" {
				w.Header().Set("Retry-After", sc.retryAfter)
			}
			w.WriteHeader(sc.statuses[n])
			json.NewEncoder(w).Encode(map[string]string{"error": http.StatusText(sc.statuses[n])})
			return
		}
		json.NewEncoder(w).Encode(MapResponse{
			APIVersion:  "v2",
			Workload:    "nbody",
			Fingerprint: "abc",
			Cache:       "hit",
		})
	}
}

// testClient builds a client against ts with instant, recorded sleeps.
func testClient(ts *httptest.Server, slept *[]time.Duration) *Client {
	return New(ts.URL,
		WithRetries(4),
		WithBackoff(100*time.Millisecond, 2*time.Second),
		WithRand(func() float64 { return 0 }), // deterministic: no jitter
		WithSleep(func(ctx context.Context, d time.Duration) error {
			*slept = append(*slept, d)
			return ctx.Err()
		}))
}

func TestMapRetriesTransientStatuses(t *testing.T) {
	for _, status := range []int{429, 502, 503, 504} {
		sc := &script{statuses: []int{status, status}}
		ts := httptest.NewServer(sc.handler())
		var slept []time.Duration
		c := testClient(ts, &slept)
		resp, err := c.Map(context.Background(), MapRequest{Workload: "nbody", Net: "hypercube:3"})
		ts.Close()
		if err != nil {
			t.Fatalf("%d: Map failed: %v", status, err)
		}
		if resp.Fingerprint != "abc" || sc.calls.Load() != 3 {
			t.Errorf("%d: fp=%q calls=%d, want abc/3", status, resp.Fingerprint, sc.calls.Load())
		}
		// Exponential schedule with Rand()=0: 100ms then 200ms.
		if len(slept) != 2 || slept[0] != 100*time.Millisecond || slept[1] != 200*time.Millisecond {
			t.Errorf("%d: slept %v, want [100ms 200ms]", status, slept)
		}
	}
}

func TestMapDoesNotRetryClientFaults(t *testing.T) {
	for _, status := range []int{400, 404, 422, 500} {
		sc := &script{statuses: []int{status}}
		ts := httptest.NewServer(sc.handler())
		var slept []time.Duration
		c := testClient(ts, &slept)
		_, err := c.Map(context.Background(), MapRequest{Workload: "bogus", Net: "x"})
		ts.Close()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Fatalf("%d: err = %v, want APIError", status, err)
		}
		if sc.calls.Load() != 1 || len(slept) != 0 {
			t.Errorf("%d: calls=%d slept=%v — client fault must not retry", status, sc.calls.Load(), slept)
		}
	}
}

func TestMapHonorsRetryAfter(t *testing.T) {
	sc := &script{statuses: []int{429}, retryAfter: "1"}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)
	if _, err := c.Map(context.Background(), MapRequest{Workload: "nbody", Net: "hypercube:3"}); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != time.Second {
		t.Errorf("slept %v, want the server's Retry-After of 1s", slept)
	}
}

func TestMapExhaustsRetries(t *testing.T) {
	sc := &script{statuses: []int{503, 503, 503, 503, 503, 503}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)
	_, err := c.Map(context.Background(), MapRequest{Workload: "nbody", Net: "hypercube:3"})
	var re *RetriesExhaustedError
	if !errors.As(err, &re) || re.Attempts != 4 {
		t.Fatalf("err = %v, want RetriesExhaustedError after 4 attempts", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Errorf("cause not unwrappable to the last APIError: %v", err)
	}
	if sc.calls.Load() != 4 {
		t.Errorf("calls = %d, want MaxAttempts=4", sc.calls.Load())
	}
}

func TestMapRetriesTransportErrors(t *testing.T) {
	// A server that dies after binding: connection refused on every try.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	var slept []time.Duration
	c := New(url,
		WithRetries(3),
		WithRand(func() float64 { return 0 }),
		WithSleep(func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}))
	_, err := c.Map(context.Background(), MapRequest{Workload: "nbody", Net: "hypercube:3"})
	var re *RetriesExhaustedError
	if !errors.As(err, &re) || re.Attempts != 3 {
		t.Fatalf("err = %v, want exhaustion after 3 attempts", err)
	}
	if len(slept) != 2 {
		t.Errorf("slept %v, want 2 backoffs", slept)
	}
}

func TestMapStopsOnContextCancel(t *testing.T) {
	sc := &script{statuses: []int{503, 503, 503, 503}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ts.URL,
		WithRetries(4),
		WithSleep(func(ctx context.Context, d time.Duration) error {
			cancel() // the caller gives up during the first backoff
			return ctx.Err()
		}))
	_, err := c.Map(ctx, MapRequest{Workload: "nbody", Net: "hypercube:3"})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if sc.calls.Load() != 1 {
		t.Errorf("calls = %d after cancel, want 1", sc.calls.Load())
	}
}

func TestBackoffCapsAndJitter(t *testing.T) {
	c := New("127.0.0.1:1",
		WithBackoff(time.Second, 3*time.Second),
		WithRand(func() float64 { return 1 })) // maximum jitter
	// Attempt 0: 1s base, full jitter halves it.
	if got := c.backoff(0, 0); got != 500*time.Millisecond {
		t.Errorf("backoff(0) = %v, want 500ms", got)
	}
	// Attempt 5: 32s raw, capped to 3s, jitter halves it.
	if got := c.backoff(5, 0); got != 1500*time.Millisecond {
		t.Errorf("backoff(5) = %v, want 1.5s", got)
	}
	// Retry-After wins over the schedule but still respects the cap.
	if got := c.backoff(0, 2*time.Second); got != 2*time.Second {
		t.Errorf("backoff w/ Retry-After = %v, want 2s", got)
	}
	if got := c.backoff(0, time.Minute); got != 3*time.Second {
		t.Errorf("backoff w/ huge Retry-After = %v, want the 3s cap", got)
	}
	// Shift overflow falls back to the cap.
	if got := c.backoff(62, 0); got != 1500*time.Millisecond {
		t.Errorf("backoff(62) = %v, want capped 1.5s", got)
	}
}

func TestWaitReadyAndStats(t *testing.T) {
	var ready atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]interface{}{
			"apiVersion": "v2",
			"stats": Stats{
				CacheHits:      7,
				WarmHits:       3,
				StoreRecovered: 5,
				HitRatio:       0.875,
			},
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL, WithSleep(func(ctx context.Context, d time.Duration) error {
		ready.Store(true) // flip to ready after the first poll
		return ctx.Err()
	}))
	if err := c.WaitReady(context.Background(), time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.CacheHits != 7 || st.WarmHits != 3 || st.StoreRecovered != 5 || st.HitRatio != 0.875 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNewNormalizesBareHostPort(t *testing.T) {
	c := New("127.0.0.1:9")
	if c.BaseURL() != "http://127.0.0.1:9" {
		t.Errorf("BaseURL = %q", c.BaseURL())
	}
	c = New("https://example.com")
	if c.BaseURL() != "https://example.com" {
		t.Errorf("BaseURL = %q", c.BaseURL())
	}
}

func TestFunctionalOptionsConfigureClient(t *testing.T) {
	sc := &script{statuses: []int{503, 503}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	var slept []time.Duration
	var retries []int
	c := New(ts.URL,
		WithRetries(3),
		WithBackoff(100*time.Millisecond, 2*time.Second),
		WithTimeout(time.Minute),
		WithRand(func() float64 { return 0 }),
		WithSleep(func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return ctx.Err()
		}),
		WithOnRetry(func(attempt int, wait time.Duration, cause error) {
			retries = append(retries, attempt)
		}),
	)
	resp, err := c.Map(context.Background(), MapRequest{Workload: "nbody", Net: "hypercube:3"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" || sc.calls.Load() != 3 {
		t.Errorf("cache=%q calls=%d, want hit after 3 attempts", resp.Cache, sc.calls.Load())
	}
	if len(slept) != 2 || slept[0] != 100*time.Millisecond || slept[1] != 200*time.Millisecond {
		t.Errorf("slept = %v, want the deterministic 100ms,200ms schedule", slept)
	}
	if len(retries) != 2 {
		t.Errorf("onRetry saw %v", retries)
	}
	// Options apply left to right; none at all means the defaults.
	if c := New(ts.URL, WithRetries(2), WithRetries(7)); c.opt.maxAttempts != 7 {
		t.Errorf("later option lost: maxAttempts = %d", c.opt.maxAttempts)
	}
	if c := New(ts.URL); c.opt.maxAttempts != 5 || c.opt.attemptTimeout != 30*time.Second {
		t.Errorf("defaults: maxAttempts=%d attemptTimeout=%v", c.opt.maxAttempts, c.opt.attemptTimeout)
	}
}

func TestMapBatchStreamsItems(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Accept") != "application/x-ndjson" {
			t.Errorf("Accept = %q", r.Header.Get("Accept"))
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Completion order differs from request order on purpose.
		w.Write([]byte(`{"index":1,"apiVersion":"v2","workload":"b","fingerprint":"f1","cache":"miss"}` + "\n"))
		w.Write([]byte(`{"index":0,"apiVersion":"v2","workload":"a","fingerprint":"f0","cache":"hit","proxied":true,"node":"n2"}` + "\n"))
	}))
	defer ts.Close()
	c := New(ts.URL)
	var got []BatchItem
	err := c.MapBatch(context.Background(), []MapRequest{{Workload: "a", Net: "x"}, {Workload: "b", Net: "x"}},
		func(item BatchItem) error {
			got = append(got, item)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Index != 1 || got[1].Index != 0 {
		t.Fatalf("items = %+v", got)
	}
	if !got[1].Proxied || got[1].Node != "n2" {
		t.Errorf("proxied fields not decoded: %+v", got[1])
	}
}

func TestMapBatchOnItemErrorAbortsStream(t *testing.T) {
	lines := atomic.Int64{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 100; i++ {
			lines.Add(1)
			w.Write([]byte(`{"index":` + string(rune('0')) + `}` + "\n"))
		}
	}))
	defer ts.Close()
	boom := errors.New("stop")
	err := New(ts.URL).MapBatch(context.Background(), []MapRequest{{Workload: "a", Net: "x"}},
		func(item BatchItem) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the onItem error", err)
	}
}

func TestMapBatchSurfacesHTTPErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"apiVersion": "v2", "error": "batch is empty"})
	}))
	defer ts.Close()
	err := New(ts.URL).MapBatch(context.Background(), nil, func(BatchItem) error { return nil })
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
}
