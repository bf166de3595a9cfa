package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"oregami/internal/check"
	"oregami/internal/mapping"
	"oregami/internal/serve/stats"
)

// cacheKey derives the content address of a mapping request: the SHA-256
// of the canonical LaRCS program text (larcs.Format output, so layout
// and comments never split the cache), the sorted merged bindings, the
// canonical network name, and the result-affecting options. Options that
// cannot change the produced mapping (timeouts, check, parallelism —
// the parallel hot paths are bit-deterministic) are deliberately
// excluded so e.g. a checked and an unchecked request share one entry.
func cacheKey(canonicalSrc string, bindings map[string]int, netName string, o *MapRequestOptions) string {
	h := sha256.New()
	part := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	// "v2": the options digest switched from the deprecated force
	// spelling to the merged algo value, so v1-era persisted stores stay
	// loadable but go cold rather than aliasing across schema versions.
	part("v2", canonicalSrc, netName)
	names := make([]string, 0, len(bindings))
	for k := range bindings {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		part(fmt.Sprintf("%s=%d", k, bindings[k]))
	}
	if o != nil {
		part(fmt.Sprintf("algo=%s|b=%d|mm=%t|refine=%t",
			o.Algo, o.MaxTasksPerProc, o.MaximumMatchingRouter, o.Refine))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// cacheEntry is one memoized mapping: the prebuilt response shell, the
// live mapping object (needed to re-run the oracle on checked hits), and
// the full fingerprint recorded at insertion time for integrity checks.
// Entries restored from the persistent store at boot have m == nil
// (the mapping object is not persisted); they serve plain hits but a
// checked request recomputes so the oracle has a live mapping.
type cacheEntry struct {
	key  string
	resp MapResponse
	m    *mapping.Mapping
	fp   string // full check.Fingerprint at insert time
	size int64
	// degraded marks a computed result that core.Map downgraded under a
	// stage deadline: it depends on machine load, so it is answered but
	// never cached or persisted.
	degraded bool
}

// hashHex is the hex SHA-256 of s — the same digest FingerprintHash
// derives from a live mapping, usable on a stored fingerprint string.
func hashHex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// resultCache is a byte-budgeted LRU of completed mappings. Every hit is
// integrity-checked: the stored mapping's fingerprint is recomputed and
// compared against the insert-time fingerprint, so any accidental
// mutation of the shared mapping object is detected and the entry is
// dropped rather than served. Safe for concurrent use.
type resultCache struct {
	maxBytes int64
	reg      *stats.Registry

	mu    sync.Mutex
	size  int64
	ll    *list.List // front = most recently used; values are *cacheEntry
	items map[string]*list.Element
}

// newResultCache builds a cache with the given byte budget (<= 0
// disables caching entirely) reporting into reg.
func newResultCache(maxBytes int64, reg *stats.Registry) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		reg:      reg,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the entry for key after verifying its integrity, counting
// a miss when needLive is set but only a warm-restored (mapping-less)
// entry is cached. Live entries recompute the mapping's fingerprint (a
// mutation since insert evicts the entry and counts corruption);
// restored entries verify that the stored fingerprint still hashes to
// the response's served fingerprint digest.
func (c *resultCache) get(key string, needLive bool) (*cacheEntry, bool) {
	if c.maxBytes <= 0 {
		c.reg.CacheMisses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.reg.CacheMisses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()

	if e.m == nil {
		if needLive {
			// A checked request needs a live mapping for the oracle:
			// treat the restored entry as a miss and recompute (the
			// fresh entry replaces this one).
			c.reg.CacheMisses.Add(1)
			return nil, false
		}
		if hashHex(e.fp) != e.resp.Fingerprint {
			c.reg.CacheCorrupt.Add(1)
			c.reg.CacheMisses.Add(1)
			c.remove(key)
			return nil, false
		}
		c.reg.CacheHits.Add(1)
		c.reg.WarmHits.Add(1)
		return e, true
	}

	// Integrity check outside the lock: fingerprinting walks the whole
	// route set and must not serialize other cache traffic.
	if check.Fingerprint(e.m) != e.fp {
		c.reg.CacheCorrupt.Add(1)
		c.reg.CacheMisses.Add(1)
		c.remove(key)
		return nil, false
	}
	c.reg.CacheHits.Add(1)
	return e, true
}

// put inserts an entry, evicting least-recently-used entries until the
// byte budget holds. Entries larger than the whole budget are refused.
func (c *resultCache) put(e *cacheEntry) {
	if c.maxBytes <= 0 || e.size > c.maxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[e.key]; ok {
		// Duplicate insert (e.g. a bypass recomputed an entry): replace.
		old := el.Value.(*cacheEntry)
		c.size -= old.size
		el.Value = e
		c.size += e.size
		c.ll.MoveToFront(el)
	} else {
		c.items[e.key] = c.ll.PushFront(e)
		c.size += e.size
	}
	var evicted int64
	for c.size > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, old.key)
		c.size -= old.size
		evicted++
	}
	items, bytes := int64(len(c.items)), c.size
	c.mu.Unlock()
	if evicted > 0 {
		c.reg.CacheEvictions.Add(evicted)
	}
	c.reg.CacheItems.Store(items)
	c.reg.CacheBytes.Store(bytes)
}

// remove deletes the entry for key if present.
func (c *resultCache) remove(key string) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, key)
		c.size -= e.size
	}
	items, bytes := int64(len(c.items)), c.size
	c.mu.Unlock()
	c.reg.CacheItems.Store(items)
	c.reg.CacheBytes.Store(bytes)
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// entrySize estimates an entry's memory footprint: the response body
// bytes plus the fingerprint string plus the route storage of the
// mapping itself.
func entrySize(respBytes int, fp string, m *mapping.Mapping) int64 {
	size := int64(respBytes) + int64(len(fp))
	for _, routes := range m.Routes {
		for _, r := range routes {
			size += int64(8 * len(r))
		}
		size += int64(24 * len(routes))
	}
	size += int64(8 * (len(m.Part) + len(m.Place)))
	return size
}
