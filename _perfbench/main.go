// Command perfbench is the repository's benchmark: it drives an
// in-process mapping service over loopback HTTP with one of three
// workloads, checks every answer, and prints end-to-end metrics, or,
// with -trace 1, per-layer metrics from a traced replay.
//
//	perfbench -workload hit-mix|cold-mix|ml-stencil -seed N -seconds S -trace 0|1
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. Run it through run.py, which
// builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	name := flag.String("workload", "", "hit-mix, cold-mix or ml-stencil")
	seed := flag.Int64("seed", 1, "workload seed: key sets, generated programs, request order and schedule")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 replays the workload traced and prints per-layer metrics")
	spansOut := flag.String("spans", "", "file the traced run writes its spans to")
	flag.Parse()
	p, ok := plans()[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload hit-mix|cold-mix|ml-stencil -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	pinned := -1
	if p.oneCPU {
		runtime.GOMAXPROCS(1)
		var err error
		if pinned, err = pinToOneCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.name, err)
			os.Exit(1)
		}
	}
	d := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = traceRun(p, *seed, d, *spansOut)
	} else {
		rep, err = benchRun(p, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.name, err)
		os.Exit(1)
	}
	if pinned >= 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("process pinned to CPU %d", pinned))
	}
	if !rep.print(os.Stdout) {
		os.Exit(1)
	}
}

// plan is one workload: its key space, its connection count, the
// deterministic preparation a fresh server gets, and its load phase.
type plan struct {
	name  string
	conns int
	// oneCPU runs the workload at GOMAXPROCS=1 with every thread of the
	// process bound to one CPU.
	oneCPU bool
	keys   func(seed int64) []key
	// setup prepares a fresh server: it computes every key once with
	// the oracle on, which also records each key's fingerprint. gen
	// selects the keys made from the seed, or else the fixed ones.
	setup func(h *harness, v *verifier, gen bool) error
	load  func(h *harness, v *verifier, seed int64, d time.Duration) *loadResult
	// primary is the request kind the workload's latency is made of.
	primary string
	// replay lists the traced requests: fixed ones first, then more
	// drawn until the replay has run long enough.
	replay func(keys []key, seed int64) (fixed []replayReq, more func() replayReq)
}

func plans() map[string]plan {
	return map[string]plan{
		// hit-mix is one sequential closed loop. With a second P, each
		// request hands off between two OS threads, and the figures then
		// track how fast the host wakes an idle vCPU rather than the
		// serving layers: over ten runs its p50 spread about three times
		// wider than at GOMAXPROCS=1. Binding the process to one CPU keeps
		// the runtime's other threads from waking across vCPUs as well; in
		// six interleaved pairs of 10 s runs the bound one had the lower
		// p50 five times.
		"hit-mix": {
			name: "hit-mix", conns: 1, oneCPU: true, keys: func(int64) []key { return hitKeys() },
			setup: populate(1, false, "miss"), load: hitLoad, primary: "hit", replay: hitReplay,
		},
		"cold-mix": {
			name: "cold-mix", conns: coldConns, keys: coldKeys,
			setup: populate(coldConns, true, "bypass"), load: coldLoad, primary: "miss", replay: coldReplay,
		},
		"ml-stencil": {
			name: "ml-stencil", conns: 1, keys: func(int64) []key { return []key{mlKey()} },
			setup: populate(1, true, "bypass"), load: mlLoad, primary: "miss", replay: mlReplay,
		},
	}
}

// populate sends every key whose generated flag is gen once, checked,
// over conns connections.
func populate(conns int, nocache bool, wantCache string) func(h *harness, v *verifier, gen bool) error {
	return func(h *harness, v *verifier, gen bool) error {
		var idx []int
		for i, k := range v.keys {
			if k.generated == gen {
				idx = append(idx, i)
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := c; j < len(idx); j += conns {
					i := idx[j]
					status, body, err := h.post(v.keys[i].body(nocache, true))
					v.check(i, status, body, err, wantCache, true)
				}
			}(c)
		}
		wg.Wait()
		if v.failed > 0 {
			return fmt.Errorf("set-up failed: %s", strings.Join(v.failures, "; "))
		}
		return nil
	}
}

// loadResult is one load phase, warm-up excluded from every field but
// requests and allocs.
type loadResult struct {
	lat      []time.Duration // measured requests
	done     []time.Duration // when each completed, from the window's start
	ok       []bool
	tasks    []float64 // tasks each mapped
	requests int       // every request of the phase, warm-up included
	allocs   float64   // heap allocations over those requests
	tailQ    float64   // fixed tail percentile; < 0 means none fits
	slo      time.Duration
	// parts splits the measured requests into that many consecutive
	// parts; the p50 and the rates are medians over the parts (or see
	// best), so a stretch of interference from outside does not move
	// them. The tail is taken the same way over tailParts parts, each
	// large enough for it.
	parts, tailParts int
	// best takes the least-disturbed part (lowest latency, highest rate)
	// instead of the median one. Each hit-mix and cold-mix request waits
	// on the host to run an idle thread, and their parts swing with how
	// busy the host is from one second to the next: over ten runs a
	// hit-mix part's p50 moved by up to half within a run, the median
	// part's by a quarter between runs, and the best part's by a
	// twentieth; cold-mix's p50 by 14% against 8%.
	best  bool
	rss   []float64 // peak resident set of each rssWindow, MB
	notes []string
}

func allocCount() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// closedLoad runs a warm-up, then a measured closed loop, drawing keys
// with pick.
func closedLoad(h *harness, v *verifier, d time.Duration, min int, warm func(), pick func() int, nocache bool, wantCache string) *loadResult {
	res := &loadResult{}
	bodies := make([][]byte, len(v.keys))
	for i, k := range v.keys {
		bodies[i] = k.body(nocache, false)
	}
	send := func(int) time.Duration {
		i := pick()
		t0 := time.Now()
		status, body, err := h.post(bodies[i])
		lat := time.Since(t0)
		s, ok := v.check(i, status, body, err, wantCache, false)
		res.ok = append(res.ok, ok)
		res.tasks = append(res.tasks, float64(s.Tasks))
		return lat
	}
	a0, n0 := allocCount(), v.attempts
	if warm != nil {
		warm()
	} else {
		runClosed(warmup, 0, send)
	}
	res.ok, res.tasks = nil, nil
	rss := startRSS()
	res.lat, res.done = runClosed(d, min, send)
	res.rss = rss.peaks()
	res.requests = v.attempts - n0
	res.allocs = allocCount() - a0
	return res
}

func hitLoad(h *harness, v *verifier, seed int64, d time.Duration) *loadResult {
	r := rand.New(rand.NewSource(seed))
	// Enough requests that every part has a tail with ten beyond it.
	need := hitParts * tailSamples(hitTailQ)
	res := closedLoad(h, v, d, need, nil, func() int { return r.Intn(len(v.keys)) }, false, "hit")
	res.tailQ, res.slo, res.parts, res.tailParts = hitTailQ, hitSLO, hitParts, hitParts
	res.best = true
	return res
}

func mlLoad(h *harness, v *verifier, _ int64, d time.Duration) *loadResult {
	warm := func() {
		status, body, err := h.post(v.keys[0].body(true, false))
		v.check(0, status, body, err, "bypass", false)
	}
	// One more sample than minSamples, so that the highest percentile
	// with ten samples beyond it exists. Every request is the same
	// computation, so each is a part of its own: the rates are then
	// medians over requests, which a stalled request does not move.
	res := closedLoad(h, v, d, minSamples+1, warm, func() int { return 0 }, true, "bypass")
	res.tailQ, res.slo, res.parts, res.tailParts = -1, mlSLO, len(res.lat), 1
	return res
}

func coldLoad(h *harness, v *verifier, seed int64, d time.Duration) *loadResult {
	r := rand.New(rand.NewSource(seed))
	interval := time.Second / coldRate
	// One cycle of warm-up, then whole cycles covering d, and at least
	// enough for one tail with ten samples beyond it.
	cycle := len(v.keys)
	perTail := (tailSamples(coldTailQ) + cycle - 1) / cycle
	cycles := max(perTail, int(math.Ceil(d.Seconds()*coldRate/float64(cycle))))
	n := (1 + cycles) * cycle
	sched := coldSchedule(r, cycle-len(coldHeavy), len(coldHeavy), 1+cycles)
	plain := make([][]byte, len(v.keys))
	checked := make([][]byte, len(v.keys))
	for i, k := range v.keys {
		plain[i], checked[i] = k.body(true, false), k.body(true, true)
	}
	ok := make([]bool, n)
	tasks := make([]float64, n)
	a0 := allocCount()
	var rss *rssSampler
	o := runOpen(interval, n, coldConns, func(i int) {
		if i == cycle {
			rss = startRSS()
		}
		k, chk := sched[i], i%coldCheckNth == 0
		b := plain[k]
		if chk {
			b = checked[k]
		}
		status, body, err := h.post(b)
		s, good := v.check(k, status, body, err, "bypass", chk)
		ok[i], tasks[i] = good, float64(s.Tasks)
	})
	res := &loadResult{
		requests: n, allocs: allocCount() - a0, tailQ: coldTailQ, slo: coldSLO,
		lat: o.latency[cycle:], ok: ok[cycle:], tasks: tasks[cycle:], rss: rss.peaks(),
		parts: cycles, tailParts: cycles / perTail, best: true,
	}
	for i := cycle; i < n; i++ {
		res.done = append(res.done, o.due[i]+o.latency[i]-o.due[cycle])
	}
	lates := make([]float64, n)
	for i, l := range o.late {
		lates[i] = ms(l)
	}
	sort.Float64s(lates)
	p99, _ := percentile(lates, 0.99)
	res.notes = append(res.notes, fmt.Sprintf("open loop: %d req/s on %d connections, %d requests due, generator late p50 %.3f ms p99 %.3f ms max %.3f ms",
		coldRate, coldConns, n, median(lates), p99, lates[n-1]))
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// benchRun is the untraced run: set-up repeated setupReps times on fresh
// servers, then the load phase on the last of them. Each set-up starts
// from the same collected heap. One made after the load phase starts
// with the load's results live, which paces the collector differently:
// such set-ups ran up to a third slower, or faster, than those before
// it, and a median over both kinds fell between them.
func benchRun(p plan, seed int64, d time.Duration) (*report, error) {
	keys := p.keys(seed)
	v := newVerifier(keys)
	rep := &report{workload: p.name, v: v}
	var lr *loadResult
	var setups []float64
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory() // collects, then returns the free heap
		t0 := time.Now()
		h, err := startServer(p.conns)
		if err != nil {
			return nil, err
		}
		if err := p.setup(h, v, false); err != nil {
			h.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		// The generated keys differ between seeds, so they are prepared
		// outside the timed set-up.
		if err := p.setup(h, v, true); err != nil {
			h.stop()
			return nil, err
		}
		if i == setupReps-1 {
			lr = p.load(h, v, seed, d)
		}
		if err := h.stop(); err != nil {
			return nil, err
		}
	}
	rep.lines = append(rep.lines, fmt.Sprintf("set-ups: %.4g s", setups))
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups: server start + one checked request for each of %d fixed keys", setupReps, fixedKeys(keys)))
	rep.endToEnd(lr)
	return rep, nil
}

// split cuts n requests into k consecutive parts of equal size, the
// last taking the remainder.
func split(n, k int) [][2]int {
	out := make([][2]int, k)
	for c := range out {
		out[c] = [2]int{c * (n / k), (c + 1) * (n / k)}
	}
	out[k-1][1] = n
	return out
}

// endToEnd derives the end-to-end metrics from a load phase.
func (rep *report) endToEnd(lr *loadResult) {
	n := len(lr.lat)
	within := 0
	for i, l := range lr.lat {
		if lr.ok[i] && l <= lr.slo {
			within++
		}
	}
	sortedMS := func(lo, hi int) []float64 {
		s := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			s = append(s, ms(lr.lat[i]))
		}
		sort.Float64s(s)
		return s
	}
	var p50s, rates, taskRates []float64
	var prevDone time.Duration
	for _, part := range split(n, lr.parts) {
		p50, _ := percentile(sortedMS(part[0], part[1]), 0.5)
		p50s = append(p50s, p50)
		tasks, end := 0.0, prevDone
		for i := part[0]; i < part[1]; i++ {
			if lr.ok[i] {
				tasks += lr.tasks[i]
			}
			end = max(end, lr.done[i])
		}
		secs := (end - prevDone).Seconds()
		rates = append(rates, float64(part[1]-part[0])/secs)
		taskRates = append(taskRates, tasks/secs)
		prevDone = end
	}
	var tails []float64
	var tailNote string
	for _, part := range split(n, lr.tailParts) {
		sorted := sortedMS(part[0], part[1])
		if lr.tailQ >= 0 {
			tail, beyond, err := tailPercentile(sorted, lr.tailQ)
			if err != nil {
				rep.fail("latency_tail_ms: %v", err)
			}
			tails = append(tails, tail)
			tailNote = fmt.Sprintf("p%g (>=%d beyond) of %d, median of %d parts", 100*lr.tailQ, beyond, len(sorted), lr.tailParts)
		} else {
			// No fixed high percentile leaves ten of this workload's few
			// samples beyond it; report the highest percentile that does.
			k := len(sorted) - minSamples
			tails = append(tails, sorted[k-1])
			tailNote = fmt.Sprintf("p%.1f of %d, the highest with %d beyond", 100*float64(k)/float64(len(sorted)), len(sorted), minSamples)
		}
	}
	if lr.parts > 1 {
		rep.lines = append(rep.lines, fmt.Sprintf("parts: p50 %.4g tail %.4g rate %.5g", p50s, tails, rates))
	}
	low, high, which := median, median, "median"
	if lr.best {
		low, high, which = slices.Min[[]float64], slices.Max[[]float64], "best"
	}
	of := fmt.Sprintf("%d requests, %s of %d parts", n, which, lr.parts)
	rep.add("latency_p50_ms", "ms", low(p50s), of)
	rep.add("latency_tail_ms", "ms", low(tails), strings.Replace(tailNote, "median", which, 1))
	rep.add("throughput_rps", "1/s", high(rates), of)
	rep.add("tasks_per_s", "tasks/s", high(taskRates), of)
	rep.add("within_slo_ratio", "ratio", float64(within)/float64(n), fmt.Sprintf("limit %v", lr.slo))
	rep.add("allocs_per_op", "count", lr.allocs/float64(lr.requests), fmt.Sprintf("whole process, %d requests incl. warm-up", lr.requests))
	rep.add("peak_rss_mb", "MB", median(lr.rss), fmt.Sprintf("median of %d windows' peaks; whole-process peak %.1f MB", len(lr.rss), peakRSSMB()))
	ipc, cont, dil, keys := rep.v.qualitySums()
	q := fmt.Sprintf("summed over %d distinct keys", keys)
	if keys < len(rep.v.keys) {
		q += fmt.Sprintf(" (%d generated programs left out)", len(rep.v.keys)-keys)
	}
	rep.add("total_ipc", "ipc", ipc, q)
	rep.add("max_contention_sum", "routes", cont, q)
	rep.add("max_dilation_sum", "hops", dil, q)
	rep.lines = append(rep.lines, lr.notes...)
}

// report collects a run's metrics and failures and prints them.
type report struct {
	workload string
	v        *verifier
	order    []string
	metrics  map[string]metricValue
	notes    map[string]string
	lines    []string
	failures []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) add(name, unit string, v float64, note string) {
	if rep.metrics == nil {
		rep.metrics, rep.notes = map[string]metricValue{}, map[string]string{}
	}
	if _, dup := rep.metrics[name]; !dup {
		rep.order = append(rep.order, name)
	}
	rep.metrics[name] = metricValue{Value: v, Unit: unit}
	rep.notes[name] = note
}

func (rep *report) fail(format string, args ...interface{}) {
	rep.failures = append(rep.failures, fmt.Sprintf(format, args...))
}

// print writes the human report and the final JSON line; it reports
// whether the run was correct.
func (rep *report) print(w *os.File) bool {
	failed := rep.v.failed + len(rep.failures)
	attempted := rep.v.attempts + len(rep.failures)
	fmt.Fprintf(w, "workload %s\n%s\n", rep.workload, meta())
	for _, name := range rep.order {
		m := rep.metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", name, m.Value, m.Unit, rep.notes[name])
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-8s %d failed of %d attempted\n", "error_ratio", float64(failed)/float64(max(attempted, 1)), "ratio", failed, attempted)
	for _, l := range rep.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	for _, f := range append(rep.v.failures, rep.failures...) {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, name := range rep.order {
		m := rep.metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(w, "  FAIL metric %s is not a number\n", name)
			failed++
			m.Value = -1
			rep.metrics[name] = m
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return false
	}
	fmt.Fprintln(w, string(out))
	return failed == 0
}
