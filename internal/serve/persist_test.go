package serve

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"oregami/internal/serve/stats"
	"oregami/internal/store"
	"oregami/internal/topology"
)

// newPersistentServer builds a ready persistent server over dir and a
// test frontend, cleaning both up with the test.
func newPersistentServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.StateDir = dir
	s := New(cfg)
	if err := s.OpenStore(); err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// drainPersist waits until the write-behind queue has flushed n writes.
func drainPersist(t *testing.T, s *Server, n int64) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if s.Stats().PersistWrites.Load()+s.Stats().PersistErrors.Load() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("write-behind never flushed %d writes (got %d)", n, s.Stats().PersistWrites.Load())
}

// TestWarmRestartServesHits is the crash-safety headline: map through
// one server, shut it down, boot a second server over the same state
// directory, and the very first request is a cache hit with the same
// fingerprint.
func TestWarmRestartServesHits(t *testing.T) {
	dir := t.TempDir()
	reqs := []MapRequest{
		{Workload: "nbody", Net: "hypercube:3"},
		{Workload: "jacobi", Net: "mesh:4,4"},
		{Workload: "broadcast8", Net: "hypercube:3"},
	}
	fps := map[string]string{}
	s1, ts1 := newPersistentServer(t, dir, Config{})
	for _, req := range reqs {
		status, resp := postMap(t, ts1.URL, req, "")
		if status != 200 || resp.Cache != "miss" {
			t.Fatalf("cold %s: %d %q", req.Workload, status, resp.Cache)
		}
		fps[req.Workload] = resp.Fingerprint
	}
	drainPersist(t, s1, int64(len(reqs)))
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newPersistentServer(t, dir, Config{})
	if got := s2.Stats().StoreRecovered.Load(); got != int64(len(reqs)) {
		t.Errorf("recovered %d entries, want %d", got, len(reqs))
	}
	for _, req := range reqs {
		status, resp := postMap(t, ts2.URL, req, "")
		if status != 200 || resp.Cache != "hit" {
			t.Errorf("warm-restart %s: %d %q, want 200 hit", req.Workload, status, resp.Cache)
		}
		if resp.Fingerprint != fps[req.Workload] {
			t.Errorf("warm-restart %s fingerprint changed: %s vs %s", req.Workload, resp.Fingerprint, fps[req.Workload])
		}
	}
	if s2.Stats().WarmHits.Load() != int64(len(reqs)) {
		t.Errorf("warm hits = %d, want %d", s2.Stats().WarmHits.Load(), len(reqs))
	}
	// A checked request on a restored entry recomputes (the oracle needs
	// a live mapping) and still serves the identical fingerprint.
	status, resp := postMap(t, ts2.URL, reqs[0], "?check=1")
	if status != 200 || resp.Cache != "miss" || !resp.Checked {
		t.Errorf("checked-on-restored: %d %q checked=%v, want 200 miss true", status, resp.Cache, resp.Checked)
	}
	if resp.Fingerprint != fps[reqs[0].Workload] {
		t.Errorf("checked recompute changed the fingerprint")
	}
	// The recomputed entry is live now: the next checked request hits.
	if status, resp := postMap(t, ts2.URL, reqs[0], "?check=1"); status != 200 || resp.Cache != "hit" {
		t.Errorf("post-recompute checked: %d %q, want 200 hit", status, resp.Cache)
	}
}

// TestRestartQuarantinesCorruptState bit-flips the WAL between two
// boots: the damaged entry must be quarantined (counted, moved aside)
// and the server must come up serving the rest.
func TestRestartQuarantinesCorruptState(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistentServer(t, dir, Config{})
	for _, req := range []MapRequest{
		{Workload: "nbody", Net: "hypercube:3"},
		{Workload: "broadcast8", Net: "hypercube:3"},
	} {
		if status, _ := postMap(t, ts1.URL, req, ""); status != 200 {
			t.Fatalf("cold map: %d", status)
		}
	}
	drainPersist(t, s1, 2)
	s1.Close()

	// Flip one byte in the first WAL record's payload.
	wal := filepath.Join(dir, "wal.log")
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/4] ^= 0x01
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := newPersistentServer(t, dir, Config{})
	if q := s2.Stats().StoreQuarantined.Load(); q == 0 {
		t.Error("corrupt WAL produced no quarantine count")
	}
	if s2.Stats().StoreRecovered.Load() >= 2 {
		t.Errorf("recovered %d entries from a damaged 2-entry WAL", s2.Stats().StoreRecovered.Load())
	}
	if s2.Stats().CacheCorrupt.Load() != 0 {
		t.Errorf("corrupt entries reached the serving cache: %d", s2.Stats().CacheCorrupt.Load())
	}
}

// TestVerifyRecordRejectsMismatchedFingerprint covers the recovery-time
// semantic check directly.
func TestVerifyRecordRejectsMismatchedFingerprint(t *testing.T) {
	resp := MapResponse{Workload: "w", Fingerprint: hashHex("full fingerprint")}
	payload, _ := json.Marshal(resp)
	if _, err := recordBody(store.Record{Key: "k", Fingerprint: "full fingerprint", Payload: payload}); err != nil {
		t.Errorf("matching record rejected: %v", err)
	}
	if _, err := recordBody(store.Record{Key: "k", Fingerprint: "tampered", Payload: payload}); err == nil {
		t.Error("mismatched fingerprint accepted")
	}
	if _, err := recordBody(store.Record{Key: "k", Fingerprint: "fp", Payload: []byte("not json")}); err == nil {
		t.Error("garbage payload accepted")
	}
}

// TestWarmEntryIntegrity exercises the restored-entry (m == nil) paths
// of the cache: hash-verified hits, corruption eviction, and the
// needLive miss for checked requests.
func TestWarmEntryIntegrity(t *testing.T) {
	reg := stats.New()
	c := newResultCache(1<<20, reg)
	fp := "full fingerprint text"
	e := &cacheEntry{
		key:    "w1",
		body:   mustMarshal(mappingBody{Workload: "wl", Fingerprint: hashHex(fp)}),
		digest: hashHex(fp),
		fp:     fp,
		size:   64,
	}
	c.put(e)
	if _, ok := c.get("w1", false); !ok {
		t.Fatal("restored entry did not serve a hit")
	}
	if reg.WarmHits.Load() != 1 {
		t.Errorf("warm hits = %d, want 1", reg.WarmHits.Load())
	}
	// A checked request must miss (no live mapping for the oracle).
	if _, ok := c.get("w1", true); ok {
		t.Error("needLive served a mapping-less entry")
	}
	// Tamper with the stored fingerprint: the hash check must evict.
	e.fp = "tampered"
	if _, ok := c.get("w1", false); ok {
		t.Error("tampered restored entry served")
	}
	if reg.CacheCorrupt.Load() != 1 || c.len() != 0 {
		t.Errorf("corrupt=%d len=%d, want 1/0", reg.CacheCorrupt.Load(), c.len())
	}
}

// TestCacheConcurrentPutEvictRestored races puts, gets, and removals of
// live and restored entries under a tiny budget; with -race this is the
// integrity path's thread-safety proof.
func TestCacheConcurrentPutEvictRestored(t *testing.T) {
	reg := stats.New()
	live := mapEntry(t, "live", "broadcast8", topology.Hypercube(3))
	c := newResultCache(6*live.size, reg)
	fp := "restored fingerprint"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				key := keyOf(g, i)
				if _, ok := c.get(key, i%3 == 0); !ok {
					if (g+i)%2 == 0 {
						e := *live
						e.key = key
						c.put(&e)
					} else {
						c.put(&cacheEntry{
							key:    key,
							digest: hashHex(fp),
							fp:     fp,
							size:   live.size,
						})
					}
				}
				if i%7 == 0 {
					c.remove(keyOf(g, i-3))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := reg.CacheCorrupt.Load(); got != 0 {
		t.Errorf("uncorrupted entries reported corrupt %d times", got)
	}
}

func keyOf(g, i int) string {
	return "k" + string(rune('a'+g)) + "-" + string(rune('0'+(i%10)))
}

// TestDegradedResultIsNeverCached pins that a stage-deadline downgrade
// is an answer for its own request only. A 1ns server stage ceiling
// expires before MWM-Contract's first check, so every computation on
// the first server degrades to greedy contraction: each is answered
// "degraded", none is cached or persisted. After a restart without the
// ceiling, the first plain request is a miss, not a warm hit on the
// degraded mapping, and its fingerprint equals the nocache one.
func TestDegradedResultIsNeverCached(t *testing.T) {
	dir := t.TempDir()
	plain := MapRequest{Workload: "jacobi", Bindings: map[string]int{"n": 12}, Net: "hypercube:3",
		Options: &MapRequestOptions{Algo: "arbitrary"}}
	bypass := plain
	bypass.Options = &MapRequestOptions{Algo: "arbitrary", NoCache: true}

	s1, ts1 := newPersistentServer(t, dir, Config{StageTimeout: time.Nanosecond})
	var degraded string
	for i, req := range []MapRequest{plain, plain, bypass} {
		status, resp := postMap(t, ts1.URL, req, "")
		if status != 200 || resp.Cache != "degraded" {
			t.Fatalf("request %d on the 1ns server: %d %q, want 200 degraded", i, status, resp.Cache)
		}
		if !strings.Contains(strings.Join(resp.Trail, "\n"), "downgrading to greedy contraction") {
			t.Errorf("request %d: trail does not record the downgrade: %v", i, resp.Trail)
		}
		degraded = resp.Fingerprint
	}
	if hits, items := s1.Stats().CacheHits.Load(), s1.cache.len(); hits != 0 || items != 0 {
		t.Errorf("degraded results reached the cache: %d hits, %d items", hits, items)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if w := s1.Stats().PersistWrites.Load(); w != 0 {
		t.Errorf("%d degraded results persisted", w)
	}

	s2, ts2 := newPersistentServer(t, dir, Config{})
	if got := s2.Stats().StoreRecovered.Load(); got != 0 {
		t.Errorf("restart warm-loaded %d records", got)
	}
	status, miss := postMap(t, ts2.URL, plain, "")
	if status != 200 || miss.Cache != "miss" {
		t.Fatalf("plain request after restart: %d %q, want 200 miss", status, miss.Cache)
	}
	status, full := postMap(t, ts2.URL, bypass, "")
	if status != 200 || full.Cache != "bypass" {
		t.Fatalf("nocache request: %d %q, want 200 bypass", status, full.Cache)
	}
	if miss.Fingerprint != full.Fingerprint {
		t.Errorf("plain fingerprint %s differs from nocache %s", miss.Fingerprint, full.Fingerprint)
	}
	if degraded == full.Fingerprint {
		t.Errorf("greedy and full MWM-Contract agree on this input (%s); it cannot show a degraded entry being served", degraded)
	}
}
