package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
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
//
// The digested text is every part followed by a NUL: "v2", the
// canonical source, the network name, one "name=value" per binding in
// name order, and "algo=A|b=B|mm=M|refine=R". It is written into one
// buffer, without fmt, and hashed once; refCacheKey in the tests is the
// fmt spelling it must equal byte for byte.
func cacheKey(canonicalSrc string, bindings map[string]int, netName string, o *MapRequestOptions) string {
	// Both buffers live on the stack unless a request outgrows them.
	names := make([]string, 0, 8)
	for k := range bindings {
		names = append(names, k)
	}
	slices.Sort(names)
	buf := make([]byte, 0, 1024)
	// "v2": the options digest switched from the deprecated force
	// spelling to the merged algo value, so v1-era persisted stores stay
	// loadable but go cold rather than aliasing across schema versions.
	buf = append(append(buf, "v2"...), 0)
	buf = append(append(buf, canonicalSrc...), 0)
	buf = append(append(buf, netName...), 0)
	for _, k := range names {
		buf = append(append(buf, k...), '=')
		buf = append(strconv.AppendInt(buf, int64(bindings[k]), 10), 0)
	}
	if o != nil {
		buf = append(append(buf, "algo="...), o.Algo...)
		buf = strconv.AppendInt(append(buf, "|b="...), int64(o.MaxTasksPerProc), 10)
		buf = strconv.AppendBool(append(buf, "|mm="...), o.MaximumMatchingRouter)
		buf = strconv.AppendBool(append(buf, "|refine="...), o.Refine)
		buf = append(buf, 0)
	}
	sum := sha256.Sum256(buf)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// cacheEntry is one memoized mapping: its response body marshalled once
// (the fields every answer from this entry shares, see mappingBody), the
// live mapping object (needed to re-run the oracle on checked hits), and
// the full fingerprint recorded at insertion time for integrity checks.
// Entries restored from the persistent store at boot have m == nil
// (the mapping object is not persisted); they serve plain hits but a
// checked request recomputes so the oracle has a live mapping.
type cacheEntry struct {
	key string
	// body is the compact JSON object of the entry's mappingBody: every
	// answer writes these bytes, and the persister stores them.
	body []byte
	// digest is the served fingerprint (the body's "fingerprint", the
	// hex SHA-256 of fp), which a restored entry's hit check re-derives.
	digest string
	m      *mapping.Mapping
	fp     string // full check.Fingerprint at insert time
	size   int64
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

// get returns the entry for key after verifying its integrity, and
// counts a miss when there is none to serve (lookup counts the rest).
func (c *resultCache) get(key string, needLive bool) (*cacheEntry, bool) {
	e, ok := c.lookup(key, needLive)
	if !ok {
		c.reg.CacheMisses.Add(1)
	}
	return e, ok
}

// lookup is get without the miss count, so a request can look once
// before its flight and once inside it and still count one hit or one
// miss. It counts a hit, a warm hit and a corrupt entry. It finds
// nothing when needLive is set but only a warm-restored (mapping-less)
// entry is cached. Live entries recompute the mapping's fingerprint (a
// mutation since insert evicts the entry and counts corruption);
// restored entries verify that the stored fingerprint still hashes to
// the served fingerprint digest.
func (c *resultCache) lookup(key string, needLive bool) (*cacheEntry, bool) {
	if c.maxBytes <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
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
			return nil, false
		}
		if hashHex(e.fp) != e.digest {
			c.reg.CacheCorrupt.Add(1)
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

// entrySize is an entry's charged size: the exact bytes of its body, its
// served digest and its fingerprint, plus an estimate of the live
// mapping's route and assignment storage (none for a restored entry).
func entrySize(body []byte, digest, fp string, m *mapping.Mapping) int64 {
	size := int64(len(body) + len(digest) + len(fp))
	if m == nil {
		return size
	}
	for _, routes := range m.Routes {
		for _, r := range routes {
			size += int64(8 * len(r))
		}
		size += int64(24 * len(routes))
	}
	size += int64(8 * (len(m.Part) + len(m.Place)))
	return size
}
