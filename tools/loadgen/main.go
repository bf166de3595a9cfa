// Command loadgen is a closed-loop load generator for the oregami
// mapping daemon (internal/serve). It drives POST /v1/map with a mix of
// workload/network pairs in two phases — cold (cache bypassed, every
// request computes) and warm (cache primed, requests hit) — and reports
// latency percentiles, throughput, and the server's cache hit ratio as
// a JSON document with the same shape tools/benchjson emits, so the two
// artifacts can be archived and diffed by the same machinery.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8080 -n 200 -c 8 -out BENCH_serve.json
//	loadgen -launch ./oregami -n 200 -c 8 -out BENCH_serve.json
//
// With -launch, loadgen spawns `<binary> serve` itself on a free port,
// runs the benchmark, and shuts the server down with SIGTERM.
//
// With -chaos (requires -launch), loadgen instead runs the kill-driven
// crash-safety harness: it launches the server with a persistent state
// directory, populates and persists the cache, measures the warm hit
// ratio, then SIGKILLs the server mid-write under nocache load,
// restarts it on the same address, and fails unless the recovered
// server serves at least 90% of the pre-kill warm hit ratio with zero
// fingerprint changes. The retrying client package rides through the
// kill window; the emitted document (BENCH_restart.json by convention)
// records recovery time and the p99 during the window.
//
// With -cluster N (requires -launch), loadgen spawns N serve nodes as a
// consistent-hash cluster (-node-id/-peers), drives the mix round-robin
// across every node so most requests land on a non-owner and must proxy,
// then SIGKILLs one node partway through a timed window while the
// survivors keep answering. The emitted document (BENCH_cluster.json by
// convention) records aggregate rps, the cross-node hit ratio (proxied
// cache hits), and the p99 with a node down; the run fails on any
// fingerprint drift, any error while degraded, or a cluster that never
// proxied at all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"oregami/client"
)

// Result mirrors tools/benchjson's Result so both tools emit one schema.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Document mirrors tools/benchjson's Document.
type Document struct {
	Meta    map[string]string `json:"meta,omitempty"`
	Results []Result          `json:"results"`
}

// target is one workload/network pair from the -mix flag.
type target struct {
	Workload string
	Bindings map[string]int
	Net      string
}

// parseMix parses comma-separated "workload[:k=v[:k=v]...]@net" entries,
// e.g. "nbody:n=255@hypercube:4,jacobi@mesh:4,4". The net spec may
// itself contain commas (a comma starts a new pair only if an '@'
// appears later in the string).
func parseMix(s string) ([]target, error) {
	var out []target
	for len(s) > 0 {
		at := strings.Index(s, "@")
		if at <= 0 {
			return nil, fmt.Errorf("mix entry %q: want workload[:k=v...]@net", s)
		}
		wl, rest := s[:at], s[at+1:]
		// The net runs until the comma that precedes the next '@'.
		end := len(rest)
		if next := strings.Index(rest, "@"); next >= 0 {
			cut := strings.LastIndex(rest[:next], ",")
			if cut < 0 {
				return nil, fmt.Errorf("mix entry after %q: missing comma between pairs", wl)
			}
			end = cut
		}
		net := strings.TrimSpace(rest[:end])
		if net == "" {
			return nil, fmt.Errorf("mix entry %q: empty net spec", wl)
		}
		t := target{Net: net}
		parts := strings.Split(wl, ":")
		t.Workload = strings.TrimSpace(parts[0])
		if t.Workload == "" {
			return nil, fmt.Errorf("mix entry %q: empty workload name", wl)
		}
		for _, kv := range parts[1:] {
			name, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("mix entry %q: binding %q is not k=v", wl, kv)
			}
			var v int
			if _, err := fmt.Sscanf(val, "%d", &v); err != nil {
				return nil, fmt.Errorf("mix entry %q: binding %q is not an integer", wl, kv)
			}
			if t.Bindings == nil {
				t.Bindings = map[string]int{}
			}
			t.Bindings[strings.TrimSpace(name)] = v
		}
		out = append(out, t)
		s = rest[end:]
		s = strings.TrimPrefix(s, ",")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return out, nil
}

// percentile returns the q-th percentile (0..100) of ds by
// nearest-rank on a sorted copy; 0 for an empty slice.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(q/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// phaseStats summarizes one benchmark phase.
type phaseStats struct {
	N        int64
	Errors   int64
	Elapsed  time.Duration
	Lat      []time.Duration
	CacheHit int64 // responses with "cache":"hit"
	CrossHit int64 // proxied responses with "cache":"hit" (cluster runs)
	FPs      []string
	Mismatch int64 // responses whose fingerprint differed from `want`
}

func (p *phaseStats) hitRatio() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.CacheHit) / float64(p.N)
}

// crossRatio is the fraction of responses that were cache hits served by
// a node other than the one asked — the cluster actually sharing work.
func (p *phaseStats) crossRatio() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.CrossHit) / float64(p.N)
}

func (p *phaseStats) result(name string, c int) Result {
	mean := float64(0)
	if p.N > 0 {
		var sum time.Duration
		for _, d := range p.Lat {
			sum += d
		}
		mean = float64(sum.Nanoseconds()) / float64(p.N)
	}
	rps := float64(0)
	if p.Elapsed > 0 {
		rps = float64(p.N) / p.Elapsed.Seconds()
	}
	return Result{
		Name:       name,
		Procs:      c,
		Iterations: p.N,
		NsPerOp:    mean,
		Extra: map[string]float64{
			"p50-ns": float64(percentile(p.Lat, 50).Nanoseconds()),
			"p90-ns": float64(percentile(p.Lat, 90).Nanoseconds()),
			"p99-ns": float64(percentile(p.Lat, 99).Nanoseconds()),
			"rps":    rps,
			"errors": float64(p.Errors),
		},
	}
}

// drive is the one request loop behind every mode. c closed-loop
// workers claim request indexes in order; request i asks mix slot
// i%len(mix) on client (i/len(mix))%len(cls), so the receiving client
// rotates once per full pass over the mix and every slot is eventually
// asked on every client (in a cluster, non-owners must proxy; proxied
// cache hits count as CrossHit). It stops after n requests or once stop
// closes, whichever comes first; a nil stop never closes. The first
// fingerprint seen per slot is recorded in FPs, and when want is
// non-nil each response is checked against want[slot] ("" skips).
func drive(cls []*client.Client, mix []target, n, c int, opts client.MapOptions, want []string, stop <-chan struct{}) *phaseStats {
	st := &phaseStats{FPs: make([]string, len(mix))}
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= n {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
				slot := i % len(mix)
				t := mix[slot]
				t0 := time.Now()
				resp, err := cls[(i/len(mix))%len(cls)].Map(context.Background(), client.MapRequest{
					Workload: t.Workload, Bindings: t.Bindings, Net: t.Net, Options: &opts,
				})
				lat := time.Since(t0)
				mu.Lock()
				st.N++
				st.Lat = append(st.Lat, lat)
				if err != nil {
					st.Errors++
				} else {
					if resp.Cache == "hit" {
						st.CacheHit++
						if resp.Proxied {
							st.CrossHit++
						}
					}
					if st.FPs[slot] == "" {
						st.FPs[slot] = resp.Fingerprint
					}
					if want != nil && want[slot] != "" && resp.Fingerprint != want[slot] {
						st.Mismatch++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.Elapsed = time.Since(start)
	return st
}

// killWindow runs drive in the background for window, calling kill
// killAfter into it. kill SIGKILLs the victim and may restart it; when
// it fails the window ends early. The load stats cover the whole window.
func killWindow(cls []*client.Client, mix []target, c int, opts client.MapOptions, want []string, killAfter, window time.Duration, kill func() error) (*phaseStats, error) {
	start := time.Now()
	stop := make(chan struct{})
	var st *phaseStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st = drive(cls, mix, math.MaxInt, c, opts, want, stop)
	}()
	time.Sleep(killAfter)
	err := kill()
	if remain := window - time.Since(start); err == nil && remain > 0 {
		time.Sleep(remain)
	}
	close(stop)
	wg.Wait()
	return st, err
}

// writeDoc encodes doc as indented JSON, the layout benchjson writes.
func writeDoc(out io.Writer, doc Document) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// server is a spawned `oregami serve` process.
type server struct {
	cmd  *exec.Cmd
	addr string
	tmp  string // addr-file scratch dir, removed with the server
}

// launchServer spawns `<bin> serve` and returns the running process.
// With addr "127.0.0.1:0" the kernel picks a port and the bound address
// is read back through an addr file; a concrete addr (the chaos restart
// and cluster paths) is used as-is so clients keep their base URL across
// the kill. extra args (the cluster flags) are appended verbatim.
func launchServer(bin, addr string, workers int, stateDir string, extra ...string) (*server, error) {
	dir, err := os.MkdirTemp("", "loadgen")
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	args := []string{"serve", "-addr", addr, "-addr-file", addrFile,
		"-workers", fmt.Sprint(workers)}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir)
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr, tmp: dir}
	for i := 0; i < 200; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			s.addr = strings.TrimSpace(string(b))
			return s, nil
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("server at %s never wrote %s", bin, addrFile)
}

// stop shuts the server down gracefully (SIGTERM + wait).
func (s *server) stop() error {
	defer os.RemoveAll(s.tmp)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return s.cmd.Wait()
}

// kill is the chaos path: SIGKILL, no drain, no store flush — whatever
// was mid-write stays torn on disk for recovery to deal with.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	os.RemoveAll(s.tmp)
}

// flags bundles the parsed command line.
type flags struct {
	fs        *flag.FlagSet
	addr      *string
	launch    *string
	mix       *string
	n         *int
	c         *int
	check     *bool
	chaos     *bool
	cluster   *int
	stateDir  *string
	killAfter *time.Duration
	window    *time.Duration
}

func newFlagSet() *flags {
	f := &flags{fs: flag.NewFlagSet("loadgen", flag.ContinueOnError)}
	f.addr = f.fs.String("addr", "", "address of a running oregami serve (host:port)")
	f.launch = f.fs.String("launch", "", "path to an oregami binary to spawn with `serve` (used when -addr is empty)")
	f.mix = f.fs.String("mix", "nbody:n=511@hypercube:5,jacobi:n=32@mesh:8,4,broadcast8@hypercube:3", "comma-separated workload[:k=v...]@net entries to request round-robin")
	f.n = f.fs.Int("n", 200, "requests per phase")
	f.c = f.fs.Int("c", 8, "concurrent closed-loop workers")
	f.check = f.fs.Bool("check", false, "request oracle verification (options.check) on every map")
	f.chaos = f.fs.Bool("chaos", false, "run the kill-driven crash-safety harness (requires -launch)")
	f.cluster = f.fs.Int("cluster", 0, "run N serve nodes as a consistent-hash cluster and kill one mid-run (requires -launch; -kill-after and -window shape the kill window)")
	f.stateDir = f.fs.String("state-dir", "", "persistent state directory for -chaos (default: a temp dir, removed on success)")
	f.killAfter = f.fs.Duration("kill-after", 500*time.Millisecond, "how far into the chaos window to SIGKILL the server")
	f.window = f.fs.Duration("window", 3*time.Second, "duration of the chaos load window spanning the kill and restart")
	return f
}

// newRetryClient builds the client used around the kill window: patient
// enough to ride out a SIGKILL plus restart plus WAL recovery.
func newRetryClient(addr string) *client.Client {
	return client.New(addr,
		client.WithRetries(10),
		client.WithBackoff(50*time.Millisecond, 2*time.Second),
		client.WithTimeout(15*time.Second))
}

// waitPersisted polls the stats endpoint until the write-behind
// persister has durably written at least n entries.
func waitPersisted(cl *client.Client, n int64, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		st, err := cl.Stats(context.Background())
		if err == nil && st.PersistWrites >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server never persisted %d entries within %s", n, budget)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// chaosWindow drives nocache load for `window`, SIGKILLs the server at
// `killAfter`, restarts it on the same address and state directory, and
// reports the load stats plus the restart-to-ready recovery time.
func chaosWindow(srv *server, bin, stateDir string, mix []target, c int, killAfter, window time.Duration) (*phaseStats, time.Duration, error) {
	var recovery time.Duration
	cls := []*client.Client{newRetryClient(srv.addr)}
	st, err := killWindow(cls, mix, c, client.MapOptions{NoCache: true}, nil, killAfter, window, func() error {
		fmt.Fprintf(os.Stderr, "loadgen: SIGKILL after %s of nocache load\n", killAfter.Round(time.Millisecond))
		srv.kill()
		restartStart := time.Now()
		srv2, err := launchServer(bin, srv.addr, c, stateDir)
		if err != nil {
			return err
		}
		*srv = *srv2
		err = newRetryClient(srv.addr).WaitReady(context.Background(), 30*time.Second)
		recovery = time.Since(restartStart)
		return err
	})
	if err != nil {
		return st, recovery, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: recovered to ready in %s\n", recovery.Round(time.Millisecond))
	return st, recovery, nil
}

// runChaos is the -chaos entry point. It writes the benchmark document
// even when an assertion fails, so a red CI run still uploads evidence.
func runChaos(fs *flags, mix []target, out io.Writer) error {
	if *fs.launch == "" {
		return fmt.Errorf("-chaos requires -launch")
	}
	stateDir := *fs.stateDir
	scratch := stateDir == ""
	if scratch {
		dir, err := os.MkdirTemp("", "oregami-chaos-state")
		if err != nil {
			return err
		}
		stateDir = dir
	}
	srv, err := launchServer(*fs.launch, "127.0.0.1:0", *fs.c, stateDir)
	if err != nil {
		return err
	}
	defer srv.stop()

	cl := newRetryClient(srv.addr)
	if err := cl.WaitReady(context.Background(), 30*time.Second); err != nil {
		return err
	}
	n, c := *fs.n, *fs.c

	// Populate: every mix slot computed once (and persisted), recording
	// the reference fingerprint per slot.
	cls := []*client.Client{cl}
	populate := drive(cls, mix, len(mix), 1, client.MapOptions{}, nil, nil)
	if populate.Errors > 0 {
		return fmt.Errorf("%d populate requests failed", populate.Errors)
	}
	if err := waitPersisted(cl, int64(len(mix)), 10*time.Second); err != nil {
		return err
	}
	// Pre-kill warm phase: the baseline hit ratio and fingerprints.
	pre := drive(cls, mix, n, c, client.MapOptions{}, populate.FPs, nil)

	// The kill/restart window under nocache (write-heavy) load.
	win, recovery, chaosErr := chaosWindow(srv, *fs.launch, stateDir, mix, c, *fs.killAfter, *fs.window)

	// Post-restart warm phase against the recovered server: same mix,
	// same fingerprints expected, hits now served from warm-restored
	// entries.
	var post *phaseStats
	var st *client.Stats
	if chaosErr == nil {
		rcl := newRetryClient(srv.addr)
		post = drive([]*client.Client{rcl}, mix, n, c, client.MapOptions{}, populate.FPs, nil)
		st, err = rcl.Stats(context.Background())
		if err != nil {
			chaosErr = fmt.Errorf("stats after restart: %w", err)
		}
	}

	preRes := pre.result("ChaosPreKillWarm", c)
	preRes.Extra["hit-ratio"] = pre.hitRatio()
	preRes.Extra["fp-mismatches"] = float64(pre.Mismatch)
	winRes := win.result("ChaosKillWindow", c)
	winRes.Extra["recovery-ms"] = float64(recovery) / float64(time.Millisecond)
	winRes.Extra["kill-after-ms"] = float64(*fs.killAfter) / float64(time.Millisecond)
	results := []Result{preRes, winRes}
	if post != nil {
		postRes := post.result("ChaosPostRestartWarm", c)
		postRes.Extra["hit-ratio"] = post.hitRatio()
		postRes.Extra["fp-mismatches"] = float64(post.Mismatch)
		if st != nil {
			postRes.Extra["store-recovered"] = float64(st.StoreRecovered)
			postRes.Extra["store-quarantined"] = float64(st.StoreQuarantined)
			postRes.Extra["warm-hits"] = float64(st.WarmHits)
			postRes.Extra["cache-corrupt"] = float64(st.CacheCorrupt)
		}
		results = append(results, postRes)
	}
	doc := Document{
		Meta: map[string]string{
			"tool":        "loadgen-chaos",
			"addr":        srv.addr,
			"mix":         *fs.mix,
			"concurrency": fmt.Sprint(c),
			"requests":    fmt.Sprint(n),
			"kill-after":  fs.killAfter.String(),
			"window":      fs.window.String(),
			"state-dir":   stateDir,
		},
		Results: results,
	}
	if err := writeDoc(out, doc); err != nil {
		return err
	}
	if chaosErr != nil {
		return chaosErr
	}

	// The crash-safety contract, enforced.
	var faults []string
	if pre.Mismatch+post.Mismatch > 0 {
		faults = append(faults, fmt.Sprintf("%d responses changed fingerprints across the kill", pre.Mismatch+post.Mismatch))
	}
	if st != nil && st.CacheCorrupt > 0 {
		faults = append(faults, fmt.Sprintf("server served-and-evicted %d corrupt cache entries", st.CacheCorrupt))
	}
	if st != nil && st.StoreRecovered == 0 {
		faults = append(faults, "restart recovered zero entries from the store")
	}
	if floor := 0.9 * pre.hitRatio(); post.hitRatio() < floor {
		faults = append(faults, fmt.Sprintf("post-restart hit ratio %.3f below 0.9 x pre-kill %.3f",
			post.hitRatio(), pre.hitRatio()))
	}
	if post.Errors > 0 {
		faults = append(faults, fmt.Sprintf("%d post-restart requests failed", post.Errors))
	}
	if len(faults) > 0 {
		return fmt.Errorf("chaos assertions failed: %s", strings.Join(faults, "; "))
	}
	if scratch {
		os.RemoveAll(stateDir)
	}
	fmt.Fprintf(os.Stderr, "loadgen: chaos pass — hit ratio %.3f -> %.3f, recovery %s\n",
		pre.hitRatio(), post.hitRatio(), recovery.Round(time.Millisecond))
	return nil
}

// reserveAddrs picks n distinct loopback ports by binding and
// immediately releasing them. The cluster needs every address before any
// node starts (each node's -peers spec names all of them), so kernel
// port-0 assignment through addr files can't work here. The tiny window
// between release and the server's own bind is an accepted bench-tool
// race: nothing else on the host is grabbing sequential ephemeral ports.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// runCluster is the -cluster entry point: N serve nodes sharing a static
// -peers spec, a populate pass so every owner caches its keys, a warm
// pass rotating every slot across every node (forcing cross-node
// proxying), then a kill window with one node SIGKILLed. The document is
// written even when an assertion fails, so a red CI run still uploads
// evidence.
func runCluster(fs *flags, mix []target, out io.Writer) error {
	if *fs.launch == "" {
		return fmt.Errorf("-cluster requires -launch")
	}
	nodes := *fs.cluster
	if nodes < 2 {
		return fmt.Errorf("-cluster needs at least 2 nodes, got %d", nodes)
	}
	addrs, err := reserveAddrs(nodes)
	if err != nil {
		return err
	}
	ids := make([]string, nodes)
	specParts := make([]string, nodes)
	for i := range addrs {
		ids[i] = fmt.Sprintf("n%d", i+1)
		specParts[i] = ids[i] + "=" + addrs[i]
	}
	spec := strings.Join(specParts, ",")

	servers := make([]*server, nodes)
	alive := make([]bool, nodes)
	defer func() {
		for i, s := range servers {
			if s != nil && alive[i] {
				s.stop()
			}
		}
	}()
	cls := make([]*client.Client, nodes)
	for i := range servers {
		servers[i], err = launchServer(*fs.launch, addrs[i], *fs.c, "",
			"-node-id", ids[i], "-peers", spec, "-probe-interval", "250ms")
		if err != nil {
			return err
		}
		alive[i] = true
		// Single attempt: in a cluster run every failure must show up in
		// the numbers, or "keeps serving under a kill" means nothing.
		cls[i] = client.New(addrs[i], client.WithRetries(1))
	}
	for _, cl := range cls {
		if err := cl.WaitReady(context.Background(), 30*time.Second); err != nil {
			return err
		}
	}
	n, c := *fs.n, *fs.c

	// Populate through node 1 only: its own keys compute locally, the
	// rest proxy to their owners, so afterwards every owner holds its
	// slice of the mix and nothing else is cached anywhere.
	populate := drive(cls[:1], mix, len(mix), 1, client.MapOptions{}, nil, nil)
	if populate.Errors > 0 {
		return fmt.Errorf("%d populate requests failed", populate.Errors)
	}

	// Warm: every slot asked on every node; non-owners proxy to the
	// owner's cache.
	warm := drive(cls, mix, n, c, client.MapOptions{}, populate.FPs, nil)

	// Kill window: warm load over the survivors while the last node
	// dies. Keys the victim owned degrade to local computation on
	// whichever survivor was asked (proxy fallback), so the contract
	// under a node kill is zero errors and zero fingerprint drift — warm
	// capacity may dip, availability and correctness may not.
	victim := nodes - 1
	kill, _ := killWindow(cls[:victim], mix, c, client.MapOptions{}, populate.FPs, *fs.killAfter, *fs.window, func() error {
		fmt.Fprintf(os.Stderr, "loadgen: SIGKILL node %d after %s of cluster load\n",
			victim+1, fs.killAfter.Round(time.Millisecond))
		servers[victim].kill()
		return nil
	})
	alive[victim] = false

	// The survivors' proxy counters, aggregated for the document.
	var proxiedIn, proxiedOut, fallbacks, proxyErrs int64
	for i, cl := range cls {
		if i == victim {
			continue
		}
		if st, err := cl.Stats(context.Background()); err == nil {
			proxiedIn += st.ProxiedIn
			proxiedOut += st.ProxiedOut
			fallbacks += st.ProxyFallbacks
			proxyErrs += st.ProxyErrors
		}
	}

	warmRes := warm.result("ClusterWarm", c)
	warmRes.Extra["hit-ratio"] = warm.hitRatio()
	warmRes.Extra["cross-node-hit-ratio"] = warm.crossRatio()
	warmRes.Extra["fp-mismatches"] = float64(warm.Mismatch)
	killRes := kill.result("ClusterKillWindow", c)
	killRes.Extra["kill-after-ms"] = float64(*fs.killAfter) / float64(time.Millisecond)
	killRes.Extra["cross-node-hit-ratio"] = kill.crossRatio()
	killRes.Extra["fp-mismatches"] = float64(kill.Mismatch)
	killRes.Extra["proxied-in"] = float64(proxiedIn)
	killRes.Extra["proxied-out"] = float64(proxiedOut)
	killRes.Extra["proxy-fallbacks"] = float64(fallbacks)
	killRes.Extra["proxy-errors"] = float64(proxyErrs)
	doc := Document{
		Meta: map[string]string{
			"tool":        "loadgen-cluster",
			"nodes":       fmt.Sprint(nodes),
			"peers":       spec,
			"mix":         *fs.mix,
			"concurrency": fmt.Sprint(c),
			"requests":    fmt.Sprint(n),
			"kill-after":  fs.killAfter.String(),
			"window":      fs.window.String(),
		},
		Results: []Result{warmRes, killRes},
	}
	if err := writeDoc(out, doc); err != nil {
		return err
	}

	// The cluster contract, enforced.
	var faults []string
	if warm.Mismatch+kill.Mismatch > 0 {
		faults = append(faults, fmt.Sprintf("%d responses changed fingerprints across nodes", warm.Mismatch+kill.Mismatch))
	}
	if warm.Errors > 0 {
		faults = append(faults, fmt.Sprintf("%d warm requests failed", warm.Errors))
	}
	if warm.CrossHit == 0 {
		faults = append(faults, "no cross-node cache hits: the cluster never proxied")
	}
	if kill.Errors > 0 {
		faults = append(faults, fmt.Sprintf("%d requests failed while a node was down", kill.Errors))
	}
	if kill.N == 0 {
		faults = append(faults, "kill window served zero requests")
	}
	if len(faults) > 0 {
		return fmt.Errorf("cluster assertions failed: %s", strings.Join(faults, "; "))
	}
	fmt.Fprintf(os.Stderr, "loadgen: cluster pass — %d nodes, cross-node hit ratio %.3f warm / %.3f under kill, %.0f rps in the kill window\n",
		nodes, warm.crossRatio(), kill.crossRatio(), float64(kill.N)/kill.Elapsed.Seconds())
	return nil
}

func run(args []string, out io.Writer) error {
	fs := newFlagSet()
	if err := fs.fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*fs.mix)
	if err != nil {
		return err
	}
	if *fs.chaos && *fs.cluster > 0 {
		return fmt.Errorf("-chaos and -cluster are mutually exclusive")
	}
	if *fs.cluster > 0 {
		return runCluster(fs, mix, out)
	}
	if *fs.chaos {
		return runChaos(fs, mix, out)
	}
	addr := *fs.addr
	if addr == "" {
		if *fs.launch == "" {
			return fmt.Errorf("need -addr or -launch")
		}
		srv, err := launchServer(*fs.launch, "127.0.0.1:0", *fs.c, "")
		if err != nil {
			return err
		}
		defer func() {
			if err := srv.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: server shutdown:", err)
			}
		}()
		addr = srv.addr
	}
	// Measured phases use a non-retrying client so every failure is an
	// error in the numbers, not a silently-retried blip.
	cl := client.New(addr, client.WithRetries(1))
	cls := []*client.Client{cl}

	// Cold: bypass the cache so every request pays full compute.
	cold := drive(cls, mix, *fs.n, *fs.c, client.MapOptions{NoCache: true, Check: *fs.check}, nil, nil)
	// Prime: one cached entry per mix element.
	prime := drive(cls, mix, len(mix), 1, client.MapOptions{Check: *fs.check}, nil, nil)
	// Warm: every request should now hit.
	warm := drive(cls, mix, *fs.n, *fs.c, client.MapOptions{Check: *fs.check}, nil, nil)

	coldRes := cold.result("ServeMapCold", *fs.c)
	warmRes := warm.result("ServeMapWarm", *fs.c)
	if st, err := cl.Stats(context.Background()); err == nil {
		warmRes.Extra["hit-ratio"] = st.HitRatio
	}
	warmRes.Extra["warm-hits"] = float64(warm.CacheHit)
	if warmRes.NsPerOp > 0 {
		warmRes.Extra["speedup-x"] = coldRes.NsPerOp / warmRes.NsPerOp
	}
	doc := Document{
		Meta: map[string]string{
			"tool":        "loadgen",
			"addr":        addr,
			"mix":         *fs.mix,
			"concurrency": fmt.Sprint(*fs.c),
			"requests":    fmt.Sprint(*fs.n),
		},
		Results: []Result{coldRes, warmRes},
	}
	if err := writeDoc(out, doc); err != nil {
		return err
	}
	if cold.Errors > 0 || warm.Errors > 0 || prime.Errors > 0 {
		return fmt.Errorf("%d cold / %d prime / %d warm requests failed",
			cold.Errors, prime.Errors, warm.Errors)
	}
	return nil
}

func main() {
	outPath := ""
	// Peel -out before the flag set so run stays testable with a writer.
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		if args[i] == "-out" && i+1 < len(args) {
			outPath = args[i+1]
			args = append(args[:i:i], args[i+2:]...)
			break
		}
	}
	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
	}
	if err := run(args, out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
