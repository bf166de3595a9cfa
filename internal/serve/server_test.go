package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer returns a Server with small limits plus its httptest
// frontend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postMap sends one /v1/map request and decodes the response.
func postMap(t *testing.T, url string, req MapRequest, query string) (int, MapResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/map"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func TestMapColdThenWarmHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3"}

	status, cold := postMap(t, ts.URL, req, "?check=1")
	if status != http.StatusOK {
		t.Fatalf("cold status = %d, body %+v", status, cold)
	}
	if cold.Cache != "miss" {
		t.Errorf("cold cache = %q, want miss", cold.Cache)
	}
	if !cold.Checked || len(cold.Violations) != 0 {
		t.Errorf("cold checked=%v violations=%v", cold.Checked, cold.Violations)
	}
	if cold.Class == "" || cold.Method == "" || len(cold.Assignment) != cold.Tasks {
		t.Errorf("cold response incomplete: %+v", cold)
	}
	if cold.Fingerprint == "" || len(cold.Fingerprint) != 64 {
		t.Errorf("fingerprint = %q", cold.Fingerprint)
	}

	status, warm := postMap(t, ts.URL, req, "?check=1")
	if status != http.StatusOK {
		t.Fatalf("warm status = %d", status)
	}
	if warm.Cache != "hit" {
		t.Errorf("warm cache = %q, want hit", warm.Cache)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("fingerprint changed across cache hit: %s vs %s", warm.Fingerprint, cold.Fingerprint)
	}
	if s.Stats().CacheHits.Load() != 1 || s.Stats().CacheMisses.Load() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1",
			s.Stats().CacheHits.Load(), s.Stats().CacheMisses.Load())
	}

	// An equivalent request written differently (binding order, explicit
	// defaults) must also hit.
	status, again := postMap(t, ts.URL, MapRequest{
		Workload: "nbody", Net: "hypercube:3",
		Bindings: map[string]int{"s": 2, "n": 15},
	}, "")
	if status != http.StatusOK || again.Cache != "hit" {
		t.Errorf("explicit-defaults request: status %d cache %q, want 200 hit", status, again.Cache)
	}
}

func TestMapInlineSourceSharesCacheWithLayoutVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := MapRequest{
		Source:   "algorithm demo(n);\nnodetype node 0..n-1;\ncomphase ring { forall i in 0..n-1 : node(i) -> node((i+1) mod n); }\nexphase work cost 1;\nphases (ring; work)^n;",
		Bindings: map[string]int{"n": 8},
		Net:      "hypercube:3",
	}
	b := a
	b.Source = "-- same program, different layout\n" + strings.ReplaceAll(a.Source, "\n", "\n\n")
	if status, resp := postMap(t, ts.URL, a, ""); status != 200 || resp.Cache != "miss" {
		t.Fatalf("first: %d %q", status, resp.Cache)
	}
	if status, resp := postMap(t, ts.URL, b, ""); status != 200 || resp.Cache != "hit" {
		t.Errorf("layout variant should share the cache entry: %d %q", status, resp.Cache)
	}
}

func TestMapNoCacheBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := MapRequest{Workload: "broadcast8", Net: "hypercube:3",
		Options: &MapRequestOptions{NoCache: true}}
	if _, resp := postMap(t, ts.URL, req, ""); resp.Cache != "bypass" {
		t.Errorf("cache = %q, want bypass", resp.Cache)
	}
	if _, resp := postMap(t, ts.URL, req, ""); resp.Cache != "bypass" {
		t.Errorf("second nocache = %q, want bypass", resp.Cache)
	}
	if s.Stats().CacheBypass.Load() != 2 {
		t.Errorf("bypass counter = %d, want 2", s.Stats().CacheBypass.Load())
	}
	// The bypass results were still stored: a normal request now hits.
	req.Options = nil
	if _, resp := postMap(t, ts.URL, req, ""); resp.Cache != "hit" {
		t.Errorf("post-bypass cache = %q, want hit", resp.Cache)
	}
}

func TestMapErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  MapRequest
		want int
		frag string
	}{
		{"neither source nor workload", MapRequest{Net: "hypercube:3"}, 400, "exactly one"},
		{"both source and workload", MapRequest{Source: "x", Workload: "nbody", Net: "hypercube:3"}, 400, "exactly one"},
		{"missing net", MapRequest{Workload: "nbody"}, 400, "net is required"},
		{"bad net spec", MapRequest{Workload: "nbody", Net: "hyprcube:3"}, 400, "hyprcube"},
		{"unknown workload", MapRequest{Workload: "nosuch", Net: "hypercube:3"}, 400, "unknown workload"},
		{"parse error", MapRequest{Source: "not larcs", Net: "hypercube:3"}, 422, "parse"},
		{"bad force", MapRequest{Workload: "nbody", Net: "hypercube:3", Options: &MapRequestOptions{Algo: "magic"}}, 400, "magic"},
		{"compile error", MapRequest{Workload: "nbody", Net: "hypercube:3", Bindings: map[string]int{"n": -3}}, 422, "compile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := json.Marshal(tc.req)
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, tc.want, buf.String())
			}
			if !strings.Contains(buf.String(), tc.frag) {
				t.Errorf("body missing %q: %s", tc.frag, buf.String())
			}
		})
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

func TestMapDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A 1ms budget cannot map 8191 tasks: expect 504 once the pipeline's
	// cooperative context checks see the expired deadline.
	status, _ := postMap(t, ts.URL, MapRequest{
		Workload: "nbody", Net: "hypercube:3",
		Bindings: map[string]int{"n": 8191},
		Options:  &MapRequestOptions{TimeoutMS: 1},
	}, "")
	if status != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", status)
	}
}

// TestConcurrentIdenticalRequestsDeduplicate fires identical concurrent
// cold requests and asserts singleflight collapsed them onto at most a
// few computations (cold misses + shared + hits must cover all).
func TestConcurrentIdenticalRequestsDeduplicate(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 64})
	const n = 16
	var wg sync.WaitGroup
	counts := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, resp := postMap(t, ts.URL, MapRequest{Workload: "jacobi", Net: "mesh:4,4"}, "")
			if status != 200 {
				t.Errorf("status = %d", status)
			}
			counts <- resp.Cache
		}()
	}
	wg.Wait()
	close(counts)
	byKind := map[string]int{}
	for k := range counts {
		byKind[k]++
	}
	if byKind["miss"]+byKind["shared"]+byKind["hit"] != n {
		t.Errorf("unexpected cache kinds: %v", byKind)
	}
	if byKind["miss"] != 1 {
		t.Errorf("%d computations for identical concurrent requests, want 1 (%v)", byKind["miss"], byKind)
	}
	if got := s.Stats().Deduped.Load() + s.Stats().CacheHits.Load(); got != n-1 {
		t.Errorf("deduped+hits = %d, want %d", got, n-1)
	}
}

// TestAdmissionControl saturates a 1-worker, 0-queue server and asserts
// oversubscribed requests get 429 with a Retry-After header.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 1, Queue: -1})
	release := make(chan struct{})
	// Occupy the only worker slot directly.
	rel, err := s.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-release
		rel()
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	body, _ := json.Marshal(MapRequest{Workload: "nbody", Net: "hypercube:3"})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.Stats().Rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", s.Stats().Rejected.Load())
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqs := []MapRequest{
		{Workload: "nbody", Net: "hypercube:3"},
		{Workload: "broadcast8", Net: "hypercube:3"},
		{Workload: "nosuch", Net: "hypercube:3"},
		{Workload: "nbody", Net: "hypercube:3"}, // duplicate of [0]
	}
	body, _ := json.Marshal(reqs)
	// Every non-SSE batch streams NDJSON in completion order, an
	// explicit Accept: application/json included.
	breq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/map/batch", bytes.NewReader(body))
	breq.Header.Set("Content-Type", "application/json")
	breq.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Accept: application/json got content-type %q, want application/x-ndjson", ct)
	}
	// Reassemble the stream into request order by index.
	out := make([]*MapResponse, len(reqs))
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var item BatchItem
		if err := dec.Decode(&item); err != nil {
			t.Fatal(err)
		}
		if item.APIVersion != APIVersion {
			t.Errorf("item apiVersion = %q, want %q", item.APIVersion, APIVersion)
		}
		if item.Index < 0 || item.Index >= len(out) || out[item.Index] != nil {
			t.Fatalf("bad or repeated index %d", item.Index)
		}
		out[item.Index] = &item.MapResponse
	}
	for i, r := range out {
		if r == nil {
			t.Fatalf("item %d never streamed", i)
		}
	}
	if out[0].Error != "" || out[1].Error != "" || out[3].Error != "" {
		t.Errorf("unexpected item errors: %+v", out)
	}
	if out[2].Error == "" || !strings.Contains(out[2].Error, "unknown workload") {
		t.Errorf("item 2 error = %q, want unknown workload", out[2].Error)
	}
	if out[0].Fingerprint != out[3].Fingerprint {
		t.Error("duplicate batch items served different mappings")
	}
	// Batch limits.
	big := make([]MapRequest, 100)
	for i := range big {
		big[i] = MapRequest{Workload: "nbody", Net: "hypercube:3"}
	}
	body, _ = json.Marshal(big)
	resp2, err := http.Post(ts.URL+"/v1/map/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Errorf("oversized batch status = %d, want 400", resp2.StatusCode)
	}
}

func TestVetEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A program with a provable out-of-bounds edge.
	src := `algorithm bad(n);
nodetype node 0..n-1;
comphase oops { forall i in 0..n-1 : node(i) -> node(i+1); }
phases oops;`
	body, _ := json.Marshal(VetRequest{Source: src})
	resp, err := http.Post(ts.URL+"/v1/vet", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out VetResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.HasErrors || len(out.Diagnostics) == 0 {
		t.Errorf("vet found nothing in a broken program: %+v", out)
	}
	// Clean program: empty diagnostics, has_errors false.
	body, _ = json.Marshal(VetRequest{Source: "algorithm ok(n);\nnodetype node 0..n-1;\ncomphase c { forall i in 0..n-2 : node(i) -> node(i+1); }\nphases c;"})
	resp2, err := http.Post(ts.URL+"/v1/vet", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var clean VetResponse
	if err := json.NewDecoder(resp2.Body).Decode(&clean); err != nil {
		t.Fatal(err)
	}
	if clean.HasErrors {
		t.Errorf("clean program reported errors: %+v", clean)
	}
}

func TestWorkloadsStatsHealthAndDebugVars(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, body := get("/v1/workloads"); code != 200 || !strings.Contains(body, "nbody") {
		t.Errorf("workloads: %d %s", code, body)
	}
	// Generate one request so the stats have content.
	postMap(t, ts.URL, MapRequest{Workload: "nbody", Net: "hypercube:3"}, "")
	if code, body := get("/v1/stats"); code != 200 ||
		!strings.Contains(body, "hit ratio") || !strings.Contains(body, "compile") {
		t.Errorf("stats: %d\n%s", code, body)
	}
	if code, body := get("/v1/stats?json=1"); code != 200 || !strings.Contains(body, "\"stages\"") {
		t.Errorf("stats json: %d %s", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "oregami_serve") {
		t.Errorf("debug/vars: %d missing oregami_serve", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof cmdline: %d", code)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("readyz: %d %q", code, body)
	}
	// Draining: liveness stays 200 (the process is alive and finishing
	// work), readiness flips to 503, and new map requests are refused.
	s.draining.Store(true)
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("draining healthz = %d, want 200 (liveness is not readiness)", code)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "draining") {
		t.Errorf("draining readyz = %d %q, want 503 draining", code, body)
	}
	if status, _ := postMap(t, ts.URL, MapRequest{Workload: "nbody", Net: "hypercube:3"}, ""); status != 503 {
		t.Errorf("draining map = %d, want 503", status)
	}
	s.draining.Store(false)
	// Recovery: readyz reports 503 "recovering" until the store has
	// replayed its WAL; healthz is 200 throughout.
	s.ready.Store(false)
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "recovering") {
		t.Errorf("recovering readyz = %d %q, want 503 recovering", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("recovering healthz = %d, want 200", code)
	}
}

// TestListenAndServeGracefulDrain runs a real listener end to end:
// bind :0, write the addr file, serve one request, cancel the context,
// and require a clean nil return.
func TestListenAndServeGracefulDrain(t *testing.T) {
	addrFile := t.TempDir() + "/addr"
	s := New(Config{Addr: "127.0.0.1:0", AddrFile: addrFile, DrainTimeout: 2 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx) }()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a := s.Addr(); a != "" {
			addr = a
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server never bound")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe returned %v, want nil after graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain within 5s")
	}
}

// TestServedMappingsPassOracleAcrossWorkloads maps a mix of workloads
// with ?check=1 — the acceptance criterion that every served mapping
// passes the internal/check oracle.
func TestServedMappingsPassOracleAcrossWorkloads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ wl, net string }{
		{"nbody", "hypercube:3"},
		{"jacobi", "mesh:4,4"},
		{"broadcast8", "hypercube:3"},
		{"fft16", "hypercube:4"},
		{"binomial", "hypercube:4"},
		{"matmul", "torus:4,4"},
	} {
		for pass := 0; pass < 2; pass++ { // cold, then cached
			status, resp := postMap(t, ts.URL, MapRequest{Workload: tc.wl, Net: tc.net}, "?check=1")
			if status != 200 {
				t.Errorf("%s->%s pass %d: status %d (%+v)", tc.wl, tc.net, pass, status, resp)
				continue
			}
			if !resp.Checked || len(resp.Violations) != 0 {
				t.Errorf("%s->%s pass %d: checked=%v violations=%v", tc.wl, tc.net, pass, resp.Checked, resp.Violations)
			}
		}
	}
}

// TestEvictionUnderTinyBudget forces evictions through the HTTP path.
func TestEvictionUnderTinyBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: 4096})
	for i := 0; i < 6; i++ {
		n := 8 + i
		status, _ := postMap(t, ts.URL, MapRequest{
			Workload: "annealing", Net: "hypercube:3",
			Bindings: map[string]int{"n": n * 4},
		}, "")
		if status != 200 {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if s.Stats().CacheEvictions.Load() == 0 {
		t.Error("no evictions under a 4KB budget")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/map")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/map = %d, want 405", resp.StatusCode)
	}
}

func ExampleServer() {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(MapRequest{Workload: "broadcast8", Net: "hypercube:3"})
	resp, err := http.Post(ts.URL+"/v1/map?check=1", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println("post:", err)
		return
	}
	defer resp.Body.Close()
	var out MapResponse
	json.NewDecoder(resp.Body).Decode(&out)
	fmt.Println(out.Workload, out.Net, out.Cache, out.Checked)
	// Output: broadcast8 hypercube(3) miss true
}
