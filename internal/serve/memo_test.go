package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"oregami/internal/core"
	"oregami/internal/larcs"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// ringSource is TestCacheKeyGolden's ring program; ringVariant is the
// same program with a comment and another layout.
const (
	ringSource  = "algorithm ring(n);\nnodetype node 0..(n - 1);\ncomphase step {\n    forall i in 0..(n - 1) : node(i) -> node(((i + 1) mod n)) volume 1;\n}\nphases step;\n"
	ringVariant = "-- a ring, laid out loosely\nalgorithm ring(n);\n\nnodetype node 0..n-1;\ncomphase step { forall i in 0..n-1 : node(i) -> node((i+1) mod n) volume 1; }\n\nphases step;"
)

// keys lists the memoized keys, sorted.
func (m *memo[V]) keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.items))
	for k := range m.items {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// memoState is what a memo holds: its keys and charged bytes.
type memoState struct {
	programs, networks     []string
	programBytes, netBytes int64
	programItems, netItems int
}

func memosOf(s *Server) memoState {
	st := memoState{programs: s.programs.keys(), networks: s.networks.keys()}
	st.programItems, st.programBytes = s.programs.usage()
	st.netItems, st.netBytes = s.networks.usage()
	return st
}

// resolveOutcome is everything resolve derives that a memo could get
// wrong: the key, the canonical text, the network name, or the error.
type resolveOutcome struct {
	key, canonical, net string
	status              int
	msg                 string
}

func resolveOnce(t *testing.T, s *Server, req MapRequest) resolveOutcome {
	t.Helper()
	r, herr := s.resolve(&req)
	if herr != nil {
		return resolveOutcome{status: herr.status, msg: herr.msg}
	}
	if got := larcs.Format(r.prog); got != r.canonical {
		t.Fatalf("resolved program formats to\n%s\nbut its canonical text is\n%s", got, r.canonical)
	}
	return resolveOutcome{key: r.key, canonical: r.canonical, net: r.req.Net.Name}
}

// smallSpec reports whether a network spec is cheap to build: it
// parses the spec as topology.ParseSpec does and bounds the parameters,
// so fuzzed specs never ask for a huge machine. A spec it cannot parse
// fails ParseSpec too, and is cheap.
func smallSpec(spec string) bool {
	kind, params, ok := strings.Cut(spec, ":")
	if !ok {
		return true
	}
	limit := 64
	switch kind {
	case "hypercube", "cbtree", "binomial", "butterfly", "ccc":
		limit = 8
	}
	prod := 1
	for _, p := range strings.Split(params, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return true
		}
		if v > limit {
			return false
		}
		if v > 1 {
			prod *= v
		}
		if prod > 4096 {
			return false
		}
	}
	return true
}

// parseBindings reads "k=v,k=v" leniently, skipping malformed pairs.
func parseBindings(s string) map[string]int {
	var out map[string]int
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil {
			continue
		}
		if out == nil {
			out = make(map[string]int)
		}
		out[k] = n
	}
	return out
}

// FuzzResolveMemo is the front-end memo's differential: a request
// resolved cold, then again from the memo, then on a fresh server must
// give one key, canonical text and network name, or one status and
// message; and a failed resolve must leave both memos as they were.
func FuzzResolveMemo(f *testing.F) {
	for _, w := range workload.All() {
		var binds []string
		for k, v := range w.Bindings(nil) {
			binds = append(binds, fmt.Sprintf("%s=%d", k, v))
		}
		sort.Strings(binds)
		f.Add(w.Source, "hypercube:3", strings.Join(binds, ","), "")
	}
	f.Add(ringSource, "hypercube:3", "n=8", "arbitrary")
	f.Add(ringVariant, "hypercube:3", "n=8", "auto")
	f.Add(ringVariant, "hier:2,2,4", "n=16", "multilevel")
	f.Add(ringVariant, "mesh:4", "n=8", "")
	f.Add("algorithm ring(n);\nnodetype node 0..;", "ring:8", "n=8", "")
	f.Add(ringSource, "ring:8", "n=8", "nonesuch")
	f.Add(ringVariant, "ring:6", "n=6", "")
	f.Fuzz(func(t *testing.T, source, spec, binds, algo string) {
		if !smallSpec(spec) {
			t.Skip("network too large to build per input")
		}
		req := MapRequest{Source: source, Net: spec, Bindings: parseBindings(binds),
			Options: &MapRequestOptions{Algo: algo}}
		s := New(Config{})
		// A second, unrelated request leaves the memos non-empty, so
		// the fuzzed request also resolves beside other entries.
		if got := resolveOnce(t, s, MapRequest{Source: ringSource, Net: "ring:5"}); got.status != 0 {
			t.Fatalf("seed request failed: %+v", got)
		}
		before := memosOf(s)
		cold := resolveOnce(t, s, req)
		afterCold := memosOf(s)
		if cold.status != 0 && !reflect.DeepEqual(before, afterCold) {
			t.Fatalf("failed resolve (%d %q) changed the memos:\n%+v\n%+v", cold.status, cold.msg, before, afterCold)
		}
		warm := resolveOnce(t, s, req)
		if after := memosOf(s); !reflect.DeepEqual(afterCold, after) {
			t.Fatalf("repeated resolve changed the memos:\n%+v\n%+v", afterCold, after)
		}
		fresh := resolveOnce(t, New(Config{}), req)
		if cold != warm || cold != fresh {
			t.Fatalf("resolve disagrees:\ncold  %+v\nwarm  %+v\nfresh %+v", cold, warm, fresh)
		}
	})
}

// TestFrontendMemoConcurrentFirstRequest races eight identical first
// requests — a new source, a new spec, nocache so every one computes —
// at one server. Each must serve the fingerprint a lone request on a
// fresh server serves, and the memos end with one entry each.
func TestFrontendMemoConcurrentFirstRequest(t *testing.T) {
	req := MapRequest{Source: ringVariant, Bindings: map[string]int{"n": 12}, Net: "torus:3,4",
		Options: &MapRequestOptions{NoCache: true}}
	_, ref := newTestServer(t, Config{})
	status, want := postMap(t, ref.URL, req, "")
	if status != http.StatusOK {
		t.Fatalf("sequential run: %d %+v", status, want)
	}
	s, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	got := make([]MapResponse, 8)
	codes := make([]int, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], got[i] = postMap(t, ts.URL, req, "")
		}(i)
	}
	wg.Wait()
	for i := range got {
		if codes[i] != http.StatusOK || got[i].Fingerprint != want.Fingerprint {
			t.Errorf("request %d: status %d fingerprint %s, want 200 %s", i, codes[i], got[i].Fingerprint, want.Fingerprint)
		}
	}
	if st := memosOf(s); st.programItems != 1 || st.netItems != 1 {
		t.Errorf("memos hold %d programs and %d networks, want 1 and 1", st.programItems, st.netItems)
	}
}

// TestFrontendMemoBounds resolves more distinct sources and specs than
// the memos hold, plus a source and a network each charged more than
// its memo's whole budget, and checks the bounds after every request.
func TestFrontendMemoBounds(t *testing.T) {
	s := New(Config{})
	within := func(when string) {
		t.Helper()
		st := memosOf(s)
		if st.programItems > programMemoItems || st.programBytes > programMemoBytes ||
			st.netItems > networkMemoItems || st.netBytes > networkMemoBytes {
			t.Fatalf("%s: memos over their bounds: %d programs, %d bytes; %d networks, %d bytes",
				when, st.programItems, st.programBytes, st.netItems, st.netBytes)
		}
	}
	n := max(programMemoItems, networkMemoItems) + 16
	for i := 0; i < n; i++ {
		req := MapRequest{
			Source:   fmt.Sprintf("-- variant %d\n%s", i, ringSource),
			Bindings: map[string]int{"n": 8},
			Net:      fmt.Sprintf("ring:%d", 3+i),
		}
		if got := resolveOnce(t, s, req); got.status != 0 {
			t.Fatalf("request %d: %+v", i, got)
		}
		within(fmt.Sprintf("request %d", i))
	}
	if st := memosOf(s); st.programItems != programMemoItems || st.netItems != networkMemoItems {
		t.Errorf("after %d distinct requests the memos hold %d programs and %d networks, want them full (%d, %d)",
			n, st.programItems, st.netItems, programMemoItems, networkMemoItems)
	}

	big := ringSource + "-- " + strings.Repeat("x", programMemoBytes) + "\n"
	// cbtree(12) has 4,095 processors and no closed-form distance: its
	// BFS table alone is charged 32 MiB.
	huge := "cbtree:12"
	if c := networkCharge(mustSpec(t, huge)); c <= networkMemoBytes {
		t.Fatalf("%s is charged %d bytes, within the %d budget", huge, c, networkMemoBytes)
	}
	if got := resolveOnce(t, s, MapRequest{Source: big, Bindings: map[string]int{"n": 8}, Net: huge}); got.status != 0 {
		t.Fatalf("oversized request: %+v", got)
	}
	within("oversized request")
	if _, ok := s.programs.get(big); ok {
		t.Error("a source over the program budget was memoized")
	}
	if _, ok := s.networks.get(huge); ok {
		t.Errorf("%s, over the network budget, was memoized", huge)
	}
}

func mustSpec(t *testing.T, spec string) *topology.Network {
	t.Helper()
	nw, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestMemoEvictsLeastRecentlyUsed checks the memo's LRU order and that
// a repeated put keeps the first value.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMemo[int](2, 100)
	m.put("a", 1, 10)
	m.put("b", 2, 10)
	m.get("a")
	m.put("c", 3, 10) // evicts b, the least recently used
	if got := m.keys(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("keys = %v, want [a c]", got)
	}
	m.put("a", 9, 10)
	if v, _ := m.get("a"); v != 1 {
		t.Errorf("a = %d after a second put, want the first value 1", v)
	}
	m.put("d", 4, 95) // over budget with anything else: evicts down to d
	if items, bytes := m.usage(); items != 1 || bytes != 95 {
		t.Errorf("usage = %d items, %d bytes, want 1 and 95", items, bytes)
	}
	m.put("e", 5, 101)
	if _, ok := m.get("e"); ok {
		t.Error("an item over the whole budget was memoized")
	}
}

// networkSurface is everything a pipeline stage can read of a network.
func networkSurface(nw *topology.Network) []interface{} {
	out := []interface{}{nw.Kind, nw.Name, nw.N, nw.Dims, nw.Links()}
	for v := 0; v < nw.N; v++ {
		out = append(out, nw.Neighbors(v), nw.NeighborLinks(v))
	}
	return out
}

// TestFrontendMemoSharedValuesUnchanged runs every MAPPER class over
// memoized programs and networks, checked, and then compares each
// memoized value with a fresh parse: no pipeline stage may write to a
// shared *Program or *Network.
func TestFrontendMemoSharedValuesUnchanged(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		wl, net string
		algo    core.Class
	}{
		{"nbody", "hypercube:3", ""},
		{"jacobi", "mesh:4,4", ""},
		{"jacobi", "mesh:4,4", core.ClassArbitrary},
		{"broadcast8", "hypercube:3", core.ClassGroup},
		{"fft16", "hypercube:4", ""},
		{"binomial", "hypercube:4", core.ClassCanned},
		{"matmul", "torus:4,4", ""},
		{"systolicmm", "mesh:3,3", core.ClassSystolic},
		{"jacobi", "hier:2,2,4", core.ClassMultilevel},
		{"jacobi", "hier:2,2,4", core.ClassBisect},
		{"annealing", "cbtree:3", ""},
	} {
		req := MapRequest{Workload: tc.wl, Net: tc.net,
			Options: &MapRequestOptions{Algo: string(tc.algo), NoCache: true}}
		for pass := 0; pass < 2; pass++ {
			if status, resp := postMap(t, ts.URL, req, "?check=1"); status != http.StatusOK {
				t.Errorf("%s -> %s (%s): %d %s", tc.wl, tc.net, tc.algo, status, resp.Error)
			}
		}
	}
	for _, src := range s.programs.keys() {
		p, _ := s.programs.get(src)
		fresh, err := larcs.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.prog, fresh) {
			t.Errorf("memoized program %q was modified by the pipeline", p.prog.Name)
		}
	}
	for _, spec := range s.networks.keys() {
		nw, _ := s.networks.get(spec)
		if !reflect.DeepEqual(networkSurface(nw), networkSurface(mustSpec(t, spec))) {
			t.Errorf("memoized network %s was modified by the pipeline", spec)
		}
	}
}

// TestFrontendMemoCounters checks the hit and miss counts in the
// registry and in both /v1/stats renderings.
func TestFrontendMemoCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3"}
	for i := 0; i < 2; i++ {
		if status, resp := postMap(t, ts.URL, req, ""); status != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, status, resp.Error)
		}
	}
	// A parse error is one program miss and nothing memoized.
	if status, _ := postMap(t, ts.URL, MapRequest{Source: "algorithm", Net: "hypercube:3"}, ""); status != http.StatusUnprocessableEntity {
		t.Fatalf("bad source: status %d, want 422", status)
	}
	if h, m := s.Stats().FrontendMemoHits.Load(), s.Stats().FrontendMemoMisses.Load(); h != 2 || m != 3 {
		t.Errorf("frontend memo hits/misses = %d/%d, want 2/3", h, m)
	}
	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return body
	}
	if body, want := get("/v1/stats"), "frontend memo: hits 2  misses 3"; !strings.Contains(string(body), want) {
		t.Errorf("/v1/stats lacks %q:\n%s", want, body)
	}
	var env struct {
		Stats struct {
			Hits   int64 `json:"frontend_memo_hits"`
			Misses int64 `json:"frontend_memo_misses"`
		} `json:"stats"`
	}
	if body := get("/v1/stats?json=1"); json.Unmarshal(body, &env) != nil || env.Stats.Hits != 2 || env.Stats.Misses != 3 {
		t.Errorf("/v1/stats?json=1 frontend memo hits/misses = %d/%d, want 2/3:\n%s", env.Stats.Hits, env.Stats.Misses, body)
	}
}

// spinSource is TestCompileIterationLimit's program: over 0..2^40 its
// guarded-out rule steps until the iteration limit, seconds at the
// server's default limits.
const spinSource = `
algorithm spin(lo, hi);
nodetype t 0..1;
comphase c {
    forall i in lo..hi if i < 0 : t(0) -> t(1);
}
phases forall k in lo..hi : c;
`

// TestMapCompileHonoursDeadline: a program that spins in the compiler
// gets a 504 once its request deadline passes, not after the compiler's
// iteration limit.
func TestMapCompileHonoursDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := MapRequest{Source: spinSource, Bindings: map[string]int{"lo": 0, "hi": 1 << 40}, Net: "hypercube:3",
		Options: &MapRequestOptions{TimeoutMS: 100}}
	start := time.Now()
	status, resp := postMap(t, ts.URL, req, "")
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout || !strings.Contains(resp.Error, "deadline exceeded") {
		t.Errorf("spinning compile: %d %q, want 504 naming the deadline", status, resp.Error)
	}
	if elapsed > 400*time.Millisecond {
		t.Errorf("spinning compile answered after %v, want within 100ms + 300ms", elapsed)
	}
}
