// Package cluster is mapd's multi-node layer: a static peer set that
// consistent-hashes the content-addressed cache key space across N
// `oregami serve` instances. Each node owns a deterministic slice of
// the keys (rendezvous hashing over check.FingerprintHash-style cache
// keys); a non-owner that misses its local cache forwards the request
// to the owner in a single hop, marked with the X-Oregami-Forwarded
// header so a forwarded request is never forwarded again. Peer health
// is probed through /readyz (reusing oregami/client's retry machinery)
// with capped exponential backoff, and a proxy failure trips the
// peer's circuit immediately — while a peer is down, its keys degrade
// to local computation on whichever node got the request, so a node
// kill costs warm capacity, never availability.
//
// The package deliberately knows nothing about internal/serve's types:
// it moves opaque request bodies and answers ownership questions; the
// server decides what to do with them.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oregami/client"
)

// ForwardHeader marks a proxied request with the id of the node that
// forwarded it. A request carrying this header is served locally, never
// forwarded again: the single-hop loop guard.
const ForwardHeader = "X-Oregami-Forwarded"

// forwardLimit bounds a forwarded response body.
const forwardLimit = 64 << 20

// Options tunes a Cluster. Zero values take the documented defaults.
type Options struct {
	// ProbeInterval is the steady-state cadence of peer /readyz probes
	// (default 1s). A failing peer's probes back off exponentially from
	// this interval up to MaxProbeBackoff.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default 500ms).
	ProbeTimeout time.Duration
	// MaxProbeBackoff caps the probe backoff for a down peer
	// (default 15s).
	MaxProbeBackoff time.Duration
	// HTTPClient overrides the forwarding transport; the default keeps
	// idle connections to every peer.
	HTTPClient *http.Client
	// OnPeerChange, when set, observes health transitions (up=false on
	// circuit trip, up=true once a probe sees /readyz again).
	OnPeerChange func(id string, up bool)
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.MaxProbeBackoff <= 0 {
		o.MaxProbeBackoff = 15 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
		}}
	}
	return o
}

// peer is one cluster member (possibly this node) plus its health
// state. up is optimistic at boot: the first failed probe or proxy
// trips it.
type peer struct {
	id    string
	addr  string // host:port as configured
	base  string // http://host:port
	up    atomic.Bool
	probe *client.Client // /readyz poller — the client package's retry machinery
}

// Cluster is a static membership view plus the proxy/health plumbing.
// All methods are safe for concurrent use.
type Cluster struct {
	self  string
	ids   []string // sorted, every member including self
	peers map[string]*peer
	opt   Options

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      sync.WaitGroup
}

// ParsePeers parses a static membership spec of the form
// "id=host:port[,id=host:port...]" — the -peers CLI flag.
func ParsePeers(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: peer %q is not id=host:port", part)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", id)
		}
		out[id] = addr
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty peer spec %q", spec)
	}
	return out, nil
}

// New builds a cluster view for node self over the given id->addr
// membership, which must include self. Call Start to begin health
// probing; a cluster that is never started still answers ownership and
// forwards (health then changes only on proxy failures).
func New(self string, peers map[string]string, opt Options) (*Cluster, error) {
	if self == "" {
		return nil, fmt.Errorf("cluster: node id is required with a peer set")
	}
	if _, ok := peers[self]; !ok {
		return nil, fmt.Errorf("cluster: node id %q is not in the peer set", self)
	}
	if len(peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 peers, got %d", len(peers))
	}
	opt = opt.withDefaults()
	c := &Cluster{
		self:  self,
		peers: make(map[string]*peer, len(peers)),
		opt:   opt,
		stop:  make(chan struct{}),
	}
	for id, addr := range peers {
		base := addr
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			base = "http://" + base
		}
		p := &peer{
			id:   id,
			addr: addr,
			base: base,
			probe: client.New(addr,
				client.WithRetries(1),
				client.WithTimeout(opt.ProbeTimeout),
				client.WithHTTPClient(opt.HTTPClient)),
		}
		p.up.Store(true)
		c.peers[id] = p
		c.ids = append(c.ids, id)
	}
	sort.Strings(c.ids)
	return c, nil
}

// Self returns this node's id.
func (c *Cluster) Self() string { return c.self }

// Nodes returns the sorted member ids, self included.
func (c *Cluster) Nodes() []string {
	out := make([]string, len(c.ids))
	copy(out, c.ids)
	return out
}

// Addr returns the configured address of a member, "" when unknown.
func (c *Cluster) Addr(id string) string {
	if p, ok := c.peers[id]; ok {
		return p.addr
	}
	return ""
}

// Owner maps a cache key to the node that owns it by rendezvous
// (highest-random-weight) hashing: every node scores hash(id, key) and
// the highest score wins. All members compute the same owner for the
// same key, no coordination required, and removing one node only moves
// that node's keys.
func (c *Cluster) Owner(key string) string {
	var best string
	var bestScore uint64
	for _, id := range c.ids {
		if s := score(id, key); best == "" || s > bestScore {
			best, bestScore = id, s
		}
	}
	return best
}

// score is the rendezvous weight of (node, key). Raw FNV-1a is not
// enough here: two nodes' hashes of the same key differ by a nearly
// key-independent constant (the prefix states diverge, the common
// suffix then shifts both almost identically), so one node would win
// nearly every key. The murmur3 fmix64 finalizer avalanches that
// correlation away, giving each node an independent uniform score.
func score(id, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	h.Write([]byte{0})
	io.WriteString(h, key)
	s := h.Sum64()
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	return s
}

// Healthy reports whether a member's circuit is closed. Self is always
// healthy; unknown ids never are.
func (c *Cluster) Healthy(id string) bool {
	if id == c.self {
		return true
	}
	p, ok := c.peers[id]
	return ok && p.up.Load()
}

// UpPeers counts healthy members other than self.
func (c *Cluster) UpPeers() int {
	n := 0
	for _, id := range c.ids {
		if id != c.self && c.Healthy(id) {
			n++
		}
	}
	return n
}

// MarkDown trips a peer's circuit (no-op for self or unknown ids). The
// probe loop, if started, closes it again once /readyz answers.
func (c *Cluster) MarkDown(id string) {
	if id == c.self {
		return
	}
	if p, ok := c.peers[id]; ok {
		c.setUp(p, false)
	}
}

func (c *Cluster) setUp(p *peer, up bool) {
	if p.up.Swap(up) != up && c.opt.OnPeerChange != nil {
		c.opt.OnPeerChange(p.id, up)
	}
}

// Forward posts body to the owner's pathAndQuery with the single-hop
// marker header and returns the raw response. One attempt, no retries:
// the caller's fallback is local computation, which is faster than a
// second network gamble. A transport failure trips the owner's circuit.
func (c *Cluster) Forward(ctx context.Context, owner, pathAndQuery string, body []byte) ([]byte, int, error) {
	p, ok := c.peers[owner]
	if !ok {
		return nil, 0, fmt.Errorf("cluster: unknown node %q", owner)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: build forward: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		c.setUp(p, false)
		return nil, 0, fmt.Errorf("cluster: forward to %s: %w", owner, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, forwardLimit))
	if err != nil {
		c.setUp(p, false)
		return nil, 0, fmt.Errorf("cluster: read forward response from %s: %w", owner, err)
	}
	return payload, resp.StatusCode, nil
}

// Start launches one health prober per peer. Probes reuse the client
// package's /readyz polling; a down peer's probes back off with capped
// doubling from ProbeInterval to MaxProbeBackoff, so a dead node costs
// a bounded trickle of connection attempts, not a probe storm.
// Idempotent.
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		for _, id := range c.ids {
			if id == c.self {
				continue
			}
			p := c.peers[id]
			c.done.Add(1)
			go c.probeLoop(p)
		}
	})
}

// Stop halts the health probers. Idempotent; safe without Start.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.done.Wait()
}

func (c *Cluster) probeLoop(p *peer) {
	defer c.done.Done()
	wait := c.opt.ProbeInterval
	for {
		t := time.NewTimer(wait)
		select {
		case <-c.stop:
			t.Stop()
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.opt.ProbeTimeout)
		err := p.probe.WaitReady(ctx, c.opt.ProbeTimeout)
		cancel()
		if err == nil {
			c.setUp(p, true)
			wait = c.opt.ProbeInterval
		} else {
			c.setUp(p, false)
			wait *= 2
			if wait > c.opt.MaxProbeBackoff {
				wait = c.opt.MaxProbeBackoff
			}
		}
	}
}
