package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oregami/internal/cluster"
)

// testCluster is an n-node mapd cluster running under httptest: every
// node shares the same peer table and serves on a pre-bound listener so
// the addresses are known before any server starts.
type testCluster struct {
	ids     []string
	servers map[string]*Server
	fronts  map[string]*httptest.Server
}

func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{
		servers: make(map[string]*Server),
		fronts:  make(map[string]*httptest.Server),
	}
	peers := make(map[string]string)
	lns := make(map[string]net.Listener)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("n%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = ln.Addr().String()
		lns[id] = ln
		tc.ids = append(tc.ids, id)
	}
	for _, id := range tc.ids {
		c := cfg
		c.NodeID = id
		c.Peers = peers
		s := New(c)
		if s.initErr != nil {
			t.Fatal(s.initErr)
		}
		ts := &httptest.Server{
			Listener: lns[id],
			Config:   &http.Server{Handler: s.Handler()},
		}
		ts.Start()
		tc.servers[id] = s
		tc.fronts[id] = ts
		t.Cleanup(func() { ts.Close(); s.Close() })
	}
	return tc
}

// ownerOf resolves req on one node and asks the ring who owns its key.
func (tc *testCluster) ownerOf(t *testing.T, req MapRequest) string {
	t.Helper()
	s := tc.servers[tc.ids[0]]
	r, herr := s.resolve(&req)
	if herr != nil {
		t.Fatal(herr)
	}
	return s.cluster.Owner(r.key)
}

// nonOwnerOf picks any node that does not own req's key.
func (tc *testCluster) nonOwnerOf(t *testing.T, req MapRequest) string {
	t.Helper()
	owner := tc.ownerOf(t, req)
	for _, id := range tc.ids {
		if id != owner {
			return id
		}
	}
	t.Fatal("no non-owner node")
	return ""
}

func TestClusterProxiesMissesToOwner(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3"}
	owner := tc.ownerOf(t, req)
	other := tc.nonOwnerOf(t, req)

	status, cold := postMap(t, tc.fronts[other].URL, req, "")
	if status != http.StatusOK {
		t.Fatalf("cold status = %d: %+v", status, cold)
	}
	if !cold.Proxied || cold.Node != owner || cold.Cache != "miss" {
		t.Errorf("cold proxied=%v node=%q cache=%q, want proxied to %s, miss",
			cold.Proxied, cold.Node, cold.Cache, owner)
	}
	// The owner's cache is now warm: a second request through any
	// non-owner is a cross-node hit.
	status, warm := postMap(t, tc.fronts[other].URL, req, "")
	if status != http.StatusOK || !warm.Proxied || warm.Cache != "hit" {
		t.Errorf("warm status=%d proxied=%v cache=%q, want proxied hit", status, warm.Proxied, warm.Cache)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("fingerprint changed across the proxy: %s vs %s", warm.Fingerprint, cold.Fingerprint)
	}
	// Hitting the owner directly is a plain local hit.
	status, direct := postMap(t, tc.fronts[owner].URL, req, "")
	if status != http.StatusOK || direct.Proxied || direct.Node != owner || direct.Cache != "hit" {
		t.Errorf("owner-direct status=%d proxied=%v node=%q cache=%q", status, direct.Proxied, direct.Node, direct.Cache)
	}
	if got := tc.servers[other].Stats().ProxiedOut.Load(); got != 2 {
		t.Errorf("non-owner proxied_out = %d, want 2", got)
	}
	if got := tc.servers[owner].Stats().ProxiedIn.Load(); got != 2 {
		t.Errorf("owner proxied_in = %d, want 2", got)
	}
	// Proxied results are not cached on the non-owner: the owner owns
	// that key space slice.
	if n := tc.servers[other].cache.len(); n != 0 {
		t.Errorf("non-owner cached %d proxied entries", n)
	}
}

func TestClusterOwnerDownFallsBackToLocalCompute(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3"}
	owner := tc.ownerOf(t, req)
	other := tc.nonOwnerOf(t, req)

	// SIGKILL stand-in: the owner's frontend goes away entirely.
	tc.fronts[owner].Close()

	status, resp := postMap(t, tc.fronts[other].URL, req, "?check=1")
	if status != http.StatusOK {
		t.Fatalf("status = %d with owner down: %+v", status, resp)
	}
	if resp.Proxied || resp.Node != other || resp.Cache != "miss" || !resp.Checked {
		t.Errorf("fallback proxied=%v node=%q cache=%q checked=%v, want local checked miss",
			resp.Proxied, resp.Node, resp.Cache, resp.Checked)
	}
	st := tc.servers[other].Stats()
	if st.ProxyFallbacks.Load() == 0 {
		t.Error("no proxy fallback counted")
	}
	// The transport failure tripped the owner's circuit, so the next
	// request skips the dead node without paying a connection attempt,
	// and the fallback compute warmed the local cache (degraded-mode
	// replica).
	if tc.servers[other].cluster.Healthy(owner) {
		t.Error("dead owner still marked healthy")
	}
	status, again := postMap(t, tc.fronts[other].URL, req, "")
	if status != http.StatusOK || again.Proxied || again.Cache != "hit" {
		t.Errorf("degraded rerun status=%d proxied=%v cache=%q, want local hit", status, again.Proxied, again.Cache)
	}
}

func TestClusterForwardedRequestsServeLocallyAndLoopsAreRejected(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3"}
	other := tc.nonOwnerOf(t, req)
	body, _ := json.Marshal(req)

	// A forwarded request is served locally even by a non-owner — the
	// single-hop guarantee.
	hr, _ := http.NewRequest(http.MethodPost, tc.fronts[other].URL+"/v1/map", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(cluster.ForwardHeader, "n9")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Proxied || out.Node != other {
		t.Errorf("forwarded status=%d proxied=%v node=%q, want local serve on %s",
			resp.StatusCode, out.Proxied, out.Node, other)
	}
	if tc.servers[other].Stats().ProxiedIn.Load() != 1 {
		t.Error("forwarded request not counted as proxied_in")
	}

	// A forward marker naming the receiving node itself is a loop (or a
	// duplicated node id): rejected, not served twice.
	hr2, _ := http.NewRequest(http.MethodPost, tc.fronts[other].URL+"/v1/map", bytes.NewReader(body))
	hr2.Header.Set("Content-Type", "application/json")
	hr2.Header.Set(cluster.ForwardHeader, other)
	resp2, err := http.DefaultClient.Do(hr2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("loop status = %d, want 400", resp2.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp2.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "loop") {
		t.Errorf("loop error = %+v (%v)", e, err)
	}
}

func TestClusterNoCacheNeverProxies(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3",
		Options: &MapRequestOptions{NoCache: true}}
	other := tc.nonOwnerOf(t, MapRequest{Workload: "nbody", Net: "hypercube:3"})
	status, resp := postMap(t, tc.fronts[other].URL, req, "")
	if status != http.StatusOK || resp.Proxied || resp.Cache != "bypass" {
		t.Errorf("nocache status=%d proxied=%v cache=%q, want local bypass", status, resp.Proxied, resp.Cache)
	}
}

func TestClusterInitErrorSurfacesInListenAndServe(t *testing.T) {
	s := New(Config{NodeID: "ghost", Peers: map[string]string{"n1": "a", "n2": "b"}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.ListenAndServe(ctx); err == nil || !strings.Contains(err.Error(), "cluster") {
		t.Fatalf("ListenAndServe err = %v, want cluster config error", err)
	}
}

func TestBatchStreamsNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	reqs := []MapRequest{
		{Workload: "nbody", Net: "hypercube:3"},
		{Workload: "broadcast8", Net: "hypercube:3"},
		{Workload: "nosuch", Net: "hypercube:3"},
	}
	body, _ := json.Marshal(reqs)
	resp, err := http.Post(ts.URL+"/v1/map/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type = %q", ct)
	}
	seen := map[int]MapResponse{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var item BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if item.APIVersion != APIVersion {
			t.Errorf("item apiVersion = %q", item.APIVersion)
		}
		if _, dup := seen[item.Index]; dup {
			t.Errorf("index %d streamed twice", item.Index)
		}
		seen[item.Index] = item.MapResponse
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("streamed %d items, want 3", len(seen))
	}
	if seen[0].Fingerprint == "" || seen[1].Fingerprint == "" {
		t.Errorf("successful items missing fingerprints: %+v", seen)
	}
	if !strings.Contains(seen[2].Error, "unknown workload") {
		t.Errorf("item 2 error = %q", seen[2].Error)
	}
	if s.Stats().StreamedItems.Load() != 3 {
		t.Errorf("streamed_items = %d, want 3", s.Stats().StreamedItems.Load())
	}
}

func TestBatchStreamsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqs := []MapRequest{{Workload: "nbody", Net: "hypercube:3"}}
	body, _ := json.Marshal(reqs)
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/map/batch", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content-type = %q", ct)
	}
	var items, done int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			done++
		case strings.HasPrefix(line, "data: {\"index\""):
			var item BatchItem
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &item); err != nil {
				t.Fatalf("event %q: %v", line, err)
			}
			if item.Index != 0 || item.Fingerprint == "" {
				t.Errorf("bad item %+v", item)
			}
			items++
		}
	}
	if items != 1 || done != 1 {
		t.Errorf("items=%d done=%d, want 1/1", items, done)
	}
}

func TestBatchClientDisconnectCancelsRemainingWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, RequestTimeout: time.Minute})
	var calls atomic.Int64
	parked, canceled := make(chan struct{}, 8), make(chan struct{}, 8)
	s.computeHook = func(ctx context.Context) error {
		if calls.Add(1) == 1 {
			return nil // first compute proceeds, producing one stream line
		}
		parked <- struct{}{}
		<-ctx.Done() // later computes block until the client goes away
		canceled <- struct{}{}
		return ctx.Err()
	}
	reqs := []MapRequest{
		{Workload: "nbody", Net: "hypercube:3"},
		{Workload: "broadcast8", Net: "hypercube:3"},
		{Workload: "fft16", Net: "hypercube:4"},
	}
	body, _ := json.Marshal(reqs)
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/map/batch", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one streamed item, then vanish mid-stream.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first BatchItem
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	// With two workers the third item enters the pool only after the
	// first compute releases its worker. Disconnect once both blocked
	// computes have parked in the hook: earlier, the third item could
	// still be waiting for admission and would fail there instead.
	parkDeadline := time.After(10 * time.Second)
	for got := 0; got < 2; got++ {
		select {
		case <-parked:
		case <-parkDeadline:
			t.Fatalf("only %d of 2 computations reached the compute hook", got)
		}
	}
	resp.Body.Close()

	// The dropped connection must cancel the request context, unblocking
	// the remaining computations with ctx.Err() instead of leaking them.
	deadline := time.After(10 * time.Second)
	for got := 0; got < 2; got++ {
		select {
		case <-canceled:
		case <-deadline:
			t.Fatalf("only %d of 2 blocked computations canceled after disconnect", got)
		}
	}
}

func TestAlgoOptionReachesScaleMappersOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, algo := range []string{"multilevel", "recursive-bisection"} {
		status, resp := postMap(t, ts.URL, MapRequest{
			Workload: "nbody", Net: "hypercube:3",
			Options: &MapRequestOptions{Algo: algo},
		}, "?check=1")
		if status != http.StatusOK || resp.Class != algo {
			t.Errorf("algo %q: status=%d class=%q violations=%v", algo, status, resp.Class, resp.Violations)
		}
	}
	// Unknown algos name the full class list.
	status, _ := postMap(t, ts.URL, MapRequest{
		Workload: "nbody", Net: "hypercube:3",
		Options: &MapRequestOptions{Algo: "simulated-annealing"},
	}, "")
	if status != http.StatusBadRequest {
		t.Errorf("unknown algo status = %d, want 400", status)
	}
}

func TestOptionsEnvelopeCheckAndNoCacheAliases(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3",
		Options: &MapRequestOptions{Check: true}}
	status, resp := postMap(t, ts.URL, req, "")
	if status != http.StatusOK || !resp.Checked {
		t.Errorf("options.check: status=%d checked=%v", status, resp.Checked)
	}
	status, resp = postMap(t, ts.URL, MapRequest{Workload: "nbody", Net: "hypercube:3",
		Options: &MapRequestOptions{NoCache: true}}, "")
	if status != http.StatusOK || resp.Cache != "bypass" {
		t.Errorf("options.nocache: status=%d cache=%q", status, resp.Cache)
	}
}
