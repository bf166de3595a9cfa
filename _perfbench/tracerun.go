package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"oregami/internal/serve/stats"
)

// replayReq is one request of the traced replay.
type replayReq struct {
	key     int
	kind    string // "hit" or "miss"
	nocache bool
	checked bool
	// serve also sends the request to the server, over loopback and
	// in process, so transport and the unattributed remainder can be
	// measured against the replay.
	serve bool
}

// hitReplay replays every warm key's populating miss once (which
// rebuilds the live mapping a hit fingerprints), then seeded hits.
func hitReplay(keys []key, seed int64) ([]replayReq, func() replayReq) {
	fixed := make([]replayReq, len(keys))
	for i := range keys {
		fixed[i] = replayReq{key: i, kind: "miss", checked: true}
	}
	r := rand.New(rand.NewSource(seed))
	return fixed, func() replayReq { return replayReq{key: r.Intn(len(keys)), kind: "hit", serve: true} }
}

// coldReplay follows the cold-mix schedule from its start; its first
// cycle visits every key once.
func coldReplay(keys []key, seed int64) ([]replayReq, func() replayReq) {
	sched := coldSchedule(rand.New(rand.NewSource(seed)), len(keys)-len(coldHeavy), len(coldHeavy), 21)
	i := 0
	next := func() replayReq {
		q := replayReq{key: sched[i%len(sched)], kind: "miss", nocache: true, checked: i%coldCheckNth == 0, serve: true}
		i++
		return q
	}
	fixed := make([]replayReq, len(keys))
	for j := range fixed {
		fixed[j] = next()
	}
	return fixed, next
}

// mlReplay replays the one request with the oracle on, as the set-up
// sends it, so the oracle's layer is timed as often as the others.
func mlReplay([]key, int64) ([]replayReq, func() replayReq) {
	q := replayReq{key: 0, kind: "miss", nocache: true, checked: true, serve: true}
	return []replayReq{q}, func() replayReq { return q }
}

// tracedReq is everything measured about one replayed request.
type tracedReq struct {
	kind                      string
	served                    bool
	self                      map[string]float64 // layer -> self time, ns
	allocs                    map[string]float64 // layer -> self allocations; nil if not alloc-replayed
	counts                    map[string]float64
	root                      time.Duration // traced replay, wall
	untraced                  time.Duration // the same replay with the tracer off
	loop                      time.Duration // loopback request
	handler                   time.Duration // in-process Server.Handler() call
	bytes                     float64
	loopAllocs, handlerAllocs float64
}

// traceRun is the traced run: one set-up, the workload's load phase
// (for the server's own registry), then a single-goroutine replay of the
// workload's requests through each layer's public functions.
func traceRun(p plan, seed int64, d time.Duration, spansOut string) (*report, error) {
	keys := p.keys(seed)
	v := newVerifier(keys)
	rep := &report{workload: p.name, v: v}
	h, err := startServer(p.conns)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	for _, gen := range []bool{false, true} {
		if err := p.setup(h, v, gen); err != nil {
			return nil, err
		}
	}
	p.load(h, v, seed, d)
	reg := h.srv.Stats().Snapshot()

	tr := &tracer{epoch: time.Now()}
	ta := &tracer{epoch: tr.epoch, allocMode: true}
	cached := make([]*replayed, len(keys))
	fixed, more := p.replay(keys, seed)
	var reqs []tracedReq
	allocDone := map[replayReq]bool{}
	primary := 0
	start := time.Now()
	// Beyond the fixed requests, replay until d has passed and every
	// timing figure rests on at least minSamples requests, within a cap.
	limit := len(fixed) + 20*len(keys)
	for i := 0; i < len(fixed) || ((time.Since(start) < d || primary < minSamples || layerShortfall(reqs, p.primary)) && i < limit); i++ {
		q := replayReq{}
		if i < len(fixed) {
			q = fixed[i]
		} else {
			q = more()
		}
		body := keys[q.key].body(q.nocache, q.checked)
		want := "hit"
		if q.nocache {
			want = "bypass"
		}
		rec := tracedReq{kind: q.kind, served: q.serve}
		if q.serve {
			t0 := time.Now()
			status, b, err := h.post(body)
			rec.loop = time.Since(t0)
			v.check(q.key, status, b, err, want, q.checked)
			status, b, rec.handler = h.handle(body)
			rec.bytes = float64(len(b))
			v.check(q.key, status, b, nil, want, q.checked)
		}
		replay := func(t *tracer) (*replayed, error) {
			if q.kind == "hit" {
				return cached[q.key], replayHit(t, body, cached[q.key])
			}
			return replayMiss(t, body, q.checked)
		}
		tr.startRequest(i)
		out, err := replay(tr)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", keys[q.key].label, err)
		}
		rec.self, rec.root = tr.selfTimes()
		if q.kind == "miss" {
			if out.fpHash != v.fp[q.key] {
				rep.fail("%s: replayed fingerprint %.12s differs from the served %.12s", keys[q.key].label, out.fpHash, v.fp[q.key])
			}
			cached[q.key], rec.counts = out, out.counts
		}
		t0 := time.Now()
		if _, err := replay(nil); err != nil {
			return nil, err
		}
		rec.untraced = time.Since(t0)
		if !allocDone[q] {
			allocDone[q] = true
			if q.serve {
				a := allocCount()
				status, b, err := h.post(body)
				rec.loopAllocs = allocCount() - a
				v.check(q.key, status, b, err, want, q.checked)
				a = allocCount()
				status, b, _ = h.handle(body)
				rec.handlerAllocs = allocCount() - a
				v.check(q.key, status, b, nil, want, q.checked)
			}
			ta.startRequest(i)
			if _, err := replay(ta); err != nil {
				return nil, err
			}
			rec.allocs = ta.allocs
		}
		if q.kind == p.primary {
			primary++
		}
		reqs = append(reqs, rec)
	}
	rep.perLayer(reqs, p.primary, reg)
	if spansOut != "" {
		if err := writeSpans(spansOut, p.name, seed, tr.spans); err != nil {
			return nil, err
		}
		rep.lines = append(rep.lines, fmt.Sprintf("%d spans written to %s", len(tr.spans), spansOut))
	}
	return rep, nil
}

// timeLayers are the replayed layers, each reported as its mean self
// time per request that entered it.
var timeLayers = []struct {
	layer, metric, unit string
	perNS               float64
}{
	{"serve.decode", "serve.decode_us", "us", 1e-3},
	{"larcs.parse", "larcs.parse_us", "us", 1e-3},
	{"larcs.format", "larcs.format_us", "us", 1e-3},
	{"topology.parse", "topology.parse_us", "us", 1e-3},
	{"larcs.compile", "larcs.compile_ms", "ms", 1e-6},
	{"core.dispatch", "core.dispatch_ms", "ms", 1e-6},
	{"contract.group", "contract.group_ms", "ms", 1e-6},
	{"contract.arbitrary", "contract.arbitrary_ms", "ms", 1e-6},
	{"embed", "embed.ms", "ms", 1e-6},
	{"multilevel.contract", "multilevel.contract_ms", "ms", 1e-6},
	{"route", "route.ms", "ms", 1e-6},
	{"metrics", "metrics.ms", "ms", 1e-6},
	{"check.fingerprint", "check.fingerprint_ms", "ms", 1e-6},
	{"check.verify", "check.verify_ms", "ms", 1e-6},
	{"serve.encode", "serve.encode_us", "us", 1e-3},
}

var countMetrics = []string{
	"larcs.tasks", "larcs.edges", "core.class_attempts", "route.rounds", "route.total_hops",
	"multilevel.levels", "multilevel.coarsest_tasks", "multilevel.refine_moves",
}

// layerShortfall reports whether some layer the replay entered has
// fewer than minSamples requests behind its figure.
func layerShortfall(reqs []tracedReq, primary string) bool {
	for _, l := range timeLayers {
		_, n := meanOf(reqs, primary, func(r *tracedReq) (float64, bool) {
			x, ok := r.self[l.layer]
			return x, ok
		})
		if n > 0 && n < minSamples {
			return true
		}
	}
	return false
}

// collect gathers get over the requests of the primary kind for which
// it is defined. A layer only the other kind enters (hit-mix hits never
// compile) reads as not entered.
func collect(reqs []tracedReq, primary string, get func(r *tracedReq) (float64, bool)) []float64 {
	var xs []float64
	for i := range reqs {
		if reqs[i].kind != primary {
			continue
		}
		if x, ok := get(&reqs[i]); ok {
			xs = append(xs, x)
		}
	}
	return xs
}

// meanOf is the mean of collect's values and their count.
func meanOf(reqs []tracedReq, primary string, get func(r *tracedReq) (float64, bool)) (mean float64, n int) {
	xs := collect(reqs, primary, get)
	for _, x := range xs {
		mean += x
	}
	if len(xs) > 0 {
		mean /= float64(len(xs))
	}
	return mean, len(xs)
}

func (rep *report) perLayer(reqs []tracedReq, primary string, reg stats.Snapshot) {
	named := func(m map[string]float64) float64 {
		sum := 0.0
		for _, l := range timeLayers {
			sum += m[l.layer]
		}
		return sum
	}
	for _, l := range timeLayers {
		l := l
		v, n := meanOf(reqs, primary, func(r *tracedReq) (float64, bool) {
			x, ok := r.self[l.layer]
			return x, ok
		})
		note := fmt.Sprintf("self time, mean of %d requests", n)
		if n == 0 {
			note = "layer not entered by this workload"
		} else if n < minSamples {
			rep.fail("%s: only %d samples", l.metric, n)
		}
		rep.add(l.metric, l.unit, v*l.perNS, note)
	}
	for _, l := range timeLayers {
		l := l
		v, n := meanOf(reqs, primary, func(r *tracedReq) (float64, bool) {
			if r.allocs == nil {
				return 0, false
			}
			x, ok := r.allocs[l.layer]
			return x, ok
		})
		rep.add(l.layer+".allocs", "count", v, fmt.Sprintf("self allocations, mean of %d replays", n))
	}
	for _, c := range countMetrics {
		c := c
		v, n := meanOf(reqs, primary, func(r *tracedReq) (float64, bool) {
			x, ok := r.counts[c]
			return x, ok
		})
		rep.add(c, "count", v, fmt.Sprintf("mean of %d requests", n))
	}
	served := func(get func(r *tracedReq) float64) func(r *tracedReq) (float64, bool) {
		return func(r *tracedReq) (float64, bool) {
			if !r.served {
				return 0, false
			}
			return get(r), true
		}
	}
	// Both differences subtract two runs of the same request, so a
	// long request's run-to-run jitter swamps them; the median resists it.
	tp := collect(reqs, primary, served(func(r *tracedReq) float64 { return float64(r.loop - r.handler) }))
	rep.add("serve.transport_us", "us", median(tp)*1e-3, fmt.Sprintf("loopback minus in-process handler, median of %d", len(tp)))
	un := collect(reqs, primary, served(func(r *tracedReq) float64 { return float64(r.handler) - named(r.self) }))
	rep.add("serve.unattributed_us", "us", median(un)*1e-3, fmt.Sprintf("handler time no replayed layer covers, median of %d", len(un)))
	b, _ := meanOf(reqs, primary, served(func(r *tracedReq) float64 { return r.bytes }))
	rep.add("serve.response_bytes", "bytes", b, "")
	withAllocs := func(get func(r *tracedReq) float64) func(r *tracedReq) (float64, bool) {
		return func(r *tracedReq) (float64, bool) {
			if !r.served || r.allocs == nil {
				return 0, false
			}
			return get(r), true
		}
	}
	ta, _ := meanOf(reqs, primary, withAllocs(func(r *tracedReq) float64 { return r.loopAllocs - r.handlerAllocs }))
	rep.add("serve.transport.allocs", "count", ta, "client and connection, both ends")
	ua, _ := meanOf(reqs, primary, withAllocs(func(r *tracedReq) float64 { return r.handlerAllocs - named(r.allocs) }))
	rep.add("serve.unattributed.allocs", "count", ua, "")

	// The server's own registry, over its set-up and load phase.
	q := reg.Stages["queue"]
	rep.add("serve.queue_wait_ms", "ms", q.MeanMS, fmt.Sprintf("mean of %d admissions", q.Count))
	rep.add("serve.rejected", "count", float64(reg.Rejected), "")
	rep.add("serve.cache_hit_ratio", "ratio", reg.HitRatio, fmt.Sprintf("%d hits, %d misses, %d bypasses", reg.CacheHits, reg.CacheMisses, reg.CacheBypass))
	rep.add("serve.cache_evictions", "count", float64(reg.CacheEvictions), "")

	var root, untraced, covered, handler float64
	for i := range reqs {
		r := &reqs[i]
		root += float64(r.root)
		untraced += float64(r.untraced)
		if r.served && r.kind == primary {
			covered += named(r.self)
			handler += float64(r.handler)
		}
	}
	rep.add("trace.overhead_ratio", "ratio", root/untraced, "traced replay over the same replay untraced")
	rep.add("trace.coverage_ratio", "ratio", covered/handler, "replayed layers' self time over in-process handler time")
	rep.add("trace.requests", "count", float64(len(reqs)), "")
}

// writeSpans writes the run's spans, kept in memory until now.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Meta     string `json:"meta"`
		Spans    []span `json:"spans"`
	}{workload, seed, meta(), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
