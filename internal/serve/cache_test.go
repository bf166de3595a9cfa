package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/larcs"
	"oregami/internal/serve/stats"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// mapEntry builds a real cache entry by running the pipeline on a
// bundled workload.
func mapEntry(t *testing.T, key, wl string, net *topology.Network) *cacheEntry {
	t.Helper()
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(core.Request{Compiled: c, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	fp := check.Fingerprint(res.Mapping)
	return &cacheEntry{
		key:  key,
		resp: MapResponse{Workload: wl, Net: net.Name},
		m:    res.Mapping,
		fp:   fp,
		size: entrySize(512, fp, res.Mapping),
	}
}

func TestCacheKeyCanonicalizationAndSensitivity(t *testing.T) {
	o := &MapRequestOptions{}
	base := cacheKey("prog", map[string]int{"n": 15, "s": 2}, "hypercube(3)", o)
	if base != cacheKey("prog", map[string]int{"s": 2, "n": 15}, "hypercube(3)", o) {
		t.Error("binding order changed the key")
	}
	diffs := []string{
		cacheKey("prog2", map[string]int{"n": 15, "s": 2}, "hypercube(3)", o),
		cacheKey("prog", map[string]int{"n": 16, "s": 2}, "hypercube(3)", o),
		cacheKey("prog", map[string]int{"n": 15}, "hypercube(3)", o),
		cacheKey("prog", map[string]int{"n": 15, "s": 2}, "mesh(4,4)", o),
		cacheKey("prog", map[string]int{"n": 15, "s": 2}, "hypercube(3)", &MapRequestOptions{Refine: true}),
		cacheKey("prog", map[string]int{"n": 15, "s": 2}, "hypercube(3)", &MapRequestOptions{Algo: "arbitrary"}),
	}
	seen := map[string]bool{base: true}
	for i, k := range diffs {
		if seen[k] {
			t.Errorf("variant %d collided with another key", i)
		}
		seen[k] = true
	}
	// Deadline and check options must NOT split the cache.
	if base != cacheKey("prog", map[string]int{"n": 15, "s": 2}, "hypercube(3)", &MapRequestOptions{TimeoutMS: 500, StageTimeoutMS: 100}) {
		t.Error("timeout options split the cache key")
	}
}

func TestCacheHitMissAndIntegrity(t *testing.T) {
	reg := stats.New()
	c := newResultCache(1<<20, reg)
	e := mapEntry(t, "k1", "nbody", topology.Hypercube(3))
	if _, ok := c.get("k1", false); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(e)
	got, ok := c.get("k1", false)
	if !ok || got.resp.Workload != "nbody" {
		t.Fatalf("expected hit, got ok=%v", ok)
	}
	if reg.CacheHits.Load() != 1 || reg.CacheMisses.Load() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", reg.CacheHits.Load(), reg.CacheMisses.Load())
	}
	// Corrupt the stored mapping: the integrity check must refuse to
	// serve it and must evict the entry.
	e.m.Part[0] = (e.m.Part[0] + 1) % e.m.NumClusters()
	if _, ok := c.get("k1", false); ok {
		t.Fatal("integrity check served a mutated mapping")
	}
	if reg.CacheCorrupt.Load() != 1 {
		t.Errorf("corrupt counter = %d, want 1", reg.CacheCorrupt.Load())
	}
	if c.len() != 0 {
		t.Errorf("corrupted entry not evicted, len = %d", c.len())
	}
}

func TestCacheLRUEvictionByBytes(t *testing.T) {
	reg := stats.New()
	proto := mapEntry(t, "k", "broadcast8", topology.Hypercube(3))
	// Budget for exactly three entries.
	c := newResultCache(3*proto.size, reg)
	for i := 0; i < 4; i++ {
		e := *proto
		e.key = fmt.Sprintf("k%d", i)
		c.put(&e)
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3 after eviction", c.len())
	}
	if _, ok := c.get("k0", false); ok {
		t.Error("oldest entry k0 should have been evicted")
	}
	if reg.CacheEvictions.Load() != 1 {
		t.Errorf("evictions = %d, want 1", reg.CacheEvictions.Load())
	}
	// Touching k1 makes k2 the LRU victim of the next insert.
	if _, ok := c.get("k1", false); !ok {
		t.Fatal("k1 should be cached")
	}
	e := *proto
	e.key = "k4"
	c.put(&e)
	if _, ok := c.get("k2", false); ok {
		t.Error("k2 should have been evicted (k1 was touched)")
	}
	if _, ok := c.get("k1", false); !ok {
		t.Error("recently used k1 was evicted")
	}
	// Oversized entries are refused outright.
	big := *proto
	big.key = "huge"
	big.size = 4 * proto.size
	c.put(&big)
	if _, ok := c.get("huge", false); ok {
		t.Error("oversized entry was cached")
	}
	// Disabled cache never stores.
	off := newResultCache(-1, stats.New())
	off.put(proto)
	if _, ok := off.get("k", false); ok {
		t.Error("disabled cache served an entry")
	}
}

// TestCacheConcurrent hammers get/put/remove from many goroutines; run
// with -race this is the cache's thread-safety proof.
func TestCacheConcurrent(t *testing.T) {
	reg := stats.New()
	proto := mapEntry(t, "k", "broadcast8", topology.Hypercube(3))
	c := newResultCache(8*proto.size, reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if _, ok := c.get(key, false); !ok {
					e := *proto
					e.key = key
					c.put(&e)
				}
				if i%10 == 0 {
					c.remove(fmt.Sprintf("k%d", i%16))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 8 {
		t.Errorf("len = %d exceeds byte budget's 8-entry capacity", c.len())
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	var g flightGroup
	var calls, entered, nShared int32
	block := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			atomic.AddInt32(&entered, 1)
			_, _, wasShared := g.do("key", func() (*cacheEntry, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-block
				return &cacheEntry{key: "key"}, nil
			})
			if wasShared {
				atomic.AddInt32(&nShared, 1)
			}
		}()
	}
	// Hold the leader's flight open until every goroutine has started
	// (and had a moment to reach do), so the followers pile on.
	for atomic.LoadInt32(&entered) < n {
		runtime.Gosched()
	}
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()
	// Invariant: every caller either computed or shared.
	if got := calls + nShared; got != n {
		t.Errorf("calls(%d) + shared(%d) = %d, want %d", calls, nShared, got, n)
	}
	if calls >= n {
		t.Errorf("fn ran %d times; singleflight deduplicated nothing", calls)
	}
}

// TestCacheKeyGolden pins the exact key of one fixed request. Persisted
// stores are addressed by these keys, so an edit to MapRequestOptions or
// to the digest format that changes the hex silently cold-starts every
// store written before it. Change the golden value only deliberately.
func TestCacheKeyGolden(t *testing.T) {
	const canonical = "algorithm ring(n);\nnodetype node 0..(n - 1);\ncomphase step {\n    forall i in 0..(n - 1) : node(i) -> node(((i + 1) mod n)) volume 1;\n}\nphases step;\n"
	prog, err := larcs.Parse(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if got := larcs.Format(prog); got != canonical {
		t.Fatalf("golden source is not canonical:\n%s", got)
	}
	const want = "a64be661abbb28d74a6f5d7dd0380555ab6f99823fa15dfdc53e504068abb3db"
	got := cacheKey(canonical, map[string]int{"n": 8}, "hypercube(3)", &MapRequestOptions{Algo: "arbitrary"})
	if got != want {
		t.Errorf("cacheKey = %s, want %s", got, want)
	}
}
