package serve

import (
	"container/list"
	"sync"

	"oregami/internal/larcs"
	"oregami/internal/topology"
)

// The front-end memos let resolve parse each distinct LaRCS source and
// build each distinct network spec once, instead of on every request —
// hit or miss — only to derive the cache key. They are keyed on the
// exact request strings: equal strings parse to equal results, so a
// memo can never merge two programs or two machines, and the key
// resolve derives from a memoized value is the one a fresh parse gives.
// The memoized values are shared read-only by every request that
// resolves to them, as cached mappings already share their network:
// Compile leaves no state on a Program, and a Network's lazy tables are
// published atomically.
//
// Both memos are bounded by the constants below, by entry count and by
// charged bytes; an item charged more than its memo's whole budget is
// never memoized, so a stream of unique huge sources or specs cannot
// grow the heap. Only successful resolves fill them.
const (
	// programMemoItems and programMemoBytes bound the program memo. A
	// program is charged its source length plus its canonical length.
	programMemoItems = 256
	programMemoBytes = 1 << 20
	// networkMemoItems and networkMemoBytes bound the network memo. A
	// network is charged per processor and per link, plus N²·2 bytes
	// when Distance falls back to its all-pairs BFS table.
	networkMemoItems = 64
	networkMemoBytes = 16 << 20

	netProcBytes = 64  // adjacency and link-id row headers, hier tables
	netLinkBytes = 128 // Link record, both adjacency slots, dup-check map entry
)

// parsedProgram is a program memo value: the parsed program and its
// canonical text, the part of the cache key the source contributes.
type parsedProgram struct {
	prog      *larcs.Program
	canonical string
}

func programCharge(source string, p parsedProgram) int64 {
	return int64(len(source) + len(p.canonical))
}

func networkCharge(nw *topology.Network) int64 {
	n := int64(nw.Processors())
	size := n*netProcBytes + int64(nw.NumLinks())*netLinkBytes
	if !nw.ClosedFormDistance() {
		size += 2 * n * n
	}
	return size
}

// memo is a bounded LRU from exact request strings to resolved values,
// safe for concurrent use.
type memo[V any] struct {
	maxItems int
	maxBytes int64

	mu    sync.Mutex
	bytes int64
	ll    *list.List // front = most recently used; values are *memoEntry[V]
	items map[string]*list.Element
}

type memoEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newMemo[V any](maxItems int, maxBytes int64) *memo[V] {
	return &memo[V]{
		maxItems: maxItems,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the value memoized under key.
func (m *memo[V]) get(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memoEntry[V]).val, true
}

// put memoizes val under key at the given charge, evicting the least
// recently used entries until both bounds hold. A value charged more
// than the whole budget is dropped, and a key already present keeps its
// first value, so every request resolving that key shares one value.
func (m *memo[V]) put(key string, val V, size int64) {
	if size > m.maxBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.items[key]; ok {
		return
	}
	m.items[key] = m.ll.PushFront(&memoEntry[V]{key: key, val: val, size: size})
	m.bytes += size
	for len(m.items) > m.maxItems || m.bytes > m.maxBytes {
		old := m.ll.Remove(m.ll.Back()).(*memoEntry[V])
		delete(m.items, old.key)
		m.bytes -= old.size
	}
}

// usage reports the entry count and charged bytes.
func (m *memo[V]) usage() (items int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items), m.bytes
}
