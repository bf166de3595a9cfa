package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/larcs"
	"oregami/internal/mapping"
	"oregami/internal/metrics"
	"oregami/internal/serve"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the enclosing span's ID, -1 for the request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the replay of one request at a time, either as spans
// (timing) or as per-layer heap allocation counts. A nil *tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	allocMode bool
	epoch     time.Time
	spans     []span // every span of the run, kept until the run ends
	req       int
	first     int // index in spans of the current request's first span

	stack  []frame
	allocs map[string]float64 // self allocations per layer, current request
}

type frame struct {
	id          int
	name        string
	startAllocs uint64
	mark        uint64 // allocation count at the last stage boundary
	childAllocs uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startRequest begins recording request req.
func (t *tracer) startRequest(req int) {
	if t == nil {
		return
	}
	t.req, t.first, t.stack = req, len(t.spans), t.stack[:0]
	t.allocs = make(map[string]float64)
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	f := frame{id: -1, name: name}
	if t.allocMode {
		f.startAllocs = mallocs()
		f.mark = f.startAllocs
	} else {
		parent := -1
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].id
		}
		f.id = len(t.spans)
		t.spans = append(t.spans, span{Req: t.req, ID: f.id, Parent: parent, Name: name, Start: t.now()})
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if !t.allocMode {
		t.spans[f.id].End = t.now()
		return
	}
	total := mallocs() - f.startAllocs
	t.allocs[f.name] += float64(total - f.childAllocs)
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childAllocs += total
	}
}

// observe is core.Request.Observe for the replay: the stages core.Map
// reports become children of the open core.dispatch span. Observe
// reports a stage when it ends, so allocations are counted from the
// previous stage boundary: the contract stage's count includes the class
// attempts that failed before it.
func (t *tracer) observe(stage string, d time.Duration) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	top := &t.stack[len(t.stack)-1]
	if t.allocMode {
		m := mallocs()
		if stage != "dispatch" { // dispatch is the open span itself
			seg := m - top.mark
			t.allocs[stage] += float64(seg)
			top.childAllocs += seg
		}
		top.mark = m
		return
	}
	if stage == "dispatch" {
		return
	}
	end := t.now()
	t.spans = append(t.spans, span{Req: t.req, ID: len(t.spans), Parent: top.id, Name: stage, Start: end - int64(d), End: end})
}

// rename relabels the current request's layer from to as to.
func (t *tracer) rename(from, to string) {
	if t == nil || from == to {
		return
	}
	if t.allocMode {
		if v, ok := t.allocs[from]; ok {
			delete(t.allocs, from)
			t.allocs[to] += v
		}
		return
	}
	for i := t.first; i < len(t.spans); i++ {
		if t.spans[i].Name == from {
			t.spans[i].Name = to
		}
	}
}

// selfTimes is each layer's self time in the current request: its spans'
// durations minus the part their child spans cover, summed by name. The
// root span's self time is the replay's own glue.
func (t *tracer) selfTimes() (self map[string]float64, root time.Duration) {
	spans := t.spans[t.first:]
	self = make(map[string]float64)
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		self[s.Name] += float64(s.End - s.Start - child[s.ID])
		if s.Parent < 0 {
			root += time.Duration(s.End - s.Start)
		}
	}
	return self, root
}

// replayed is what a replay of one request produced.
type replayed struct {
	m      *mapping.Mapping
	resp   serve.MapResponse
	fp     string // full fingerprint, which a hit checks the mapping against
	fpHash string
	counts map[string]float64
}

// serverParallelism is the per-request worker budget a default server
// gives each request: GOMAXPROCS divided across GOMAXPROCS workers.
const serverParallelism = 1

// decodeResolve is the front of every request: decode the body, parse
// and canonicalize the program, parse the target network. It mirrors
// what the server does before its cache lookup; the key hash, binding
// merge and workload lookup are left to the unattributed remainder.
func decodeResolve(t *tracer, body []byte) (*serve.MapRequest, *larcs.Program, map[string]int, *topology.Network, error) {
	t.begin("serve.decode")
	var req serve.MapRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	t.end()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("decode: %w", err)
	}
	src := req.Source
	bindings := make(map[string]int)
	if req.Workload != "" {
		w, err := workload.ByName(req.Workload)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		src = w.Source
		for k, v := range w.Defaults {
			bindings[k] = v
		}
	}
	for k, v := range req.Bindings {
		bindings[k] = v
	}
	t.begin("larcs.parse")
	prog, err := larcs.Parse(src)
	t.end()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t.begin("larcs.format")
	_ = larcs.Format(prog)
	t.end()
	t.begin("topology.parse")
	net, err := topology.ParseSpec(req.Net)
	t.end()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return &req, prog, bindings, net, nil
}

// encodeResponse renders a response the way the server's writeJSON does.
func encodeResponse(resp *serve.MapResponse) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		panic(fmt.Sprintf("perfbench: encode response: %v", err))
	}
	return buf.Bytes()
}

// autoOrder is the dispatcher's try order for algo "" (core.Map).
var autoOrder = []core.Class{core.ClassSystolic, core.ClassCanned, core.ClassGroup, core.ClassArbitrary}

// contractLayer names the contraction stage by the class that ran it.
func contractLayer(c core.Class) string {
	switch c {
	case core.ClassGroup:
		return "contract.group"
	case core.ClassArbitrary:
		return "contract.arbitrary"
	case core.ClassMultilevel:
		return "multilevel.contract"
	}
	return "contract." + string(c)
}

// replayMiss replays a computed (miss or nocache) request by calling each
// layer's public entry point in the order the server does: decode and
// resolve, compile, dispatch (core.Map, whose stages arrive through its
// Observe hook), METRICS, fingerprint, response encoding, and, for a
// checked request, the oracle.
func replayMiss(t *tracer, body []byte, checked bool) (*replayed, error) {
	t.begin("replay")
	defer t.end()
	req, prog, bindings, net, err := decodeResolve(t, body)
	if err != nil {
		return nil, err
	}
	t.begin("larcs.compile")
	comp, err := prog.Compile(bindings, larcs.Limits{MaxTasks: 1 << 20, MaxEdges: 1 << 22})
	t.end()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	algo := core.Class(req.Options.Algo)
	t.begin("core.dispatch")
	res, err := core.Map(core.Request{
		Compiled:    comp,
		Net:         net,
		Force:       algo,
		Ctx:         context.Background(),
		Observe:     t.observe,
		Parallelism: serverParallelism,
	})
	t.end()
	if err != nil {
		return nil, err
	}
	t.rename("contract", contractLayer(res.Class))
	m := res.Mapping

	t.begin("metrics")
	rep, err := metrics.ComputeN(m, serverParallelism)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("check.fingerprint")
	fp := check.Fingerprint(m)
	hash := check.FingerprintHash(m)
	t.end()

	t.begin("serve.encode")
	resp := serve.MapResponse{
		APIVersion: serve.APIVersion, Workload: req.Workload, Net: net.Name,
		Tasks: comp.Graph.NumTasks, Procs: net.N, Class: string(res.Class), Method: m.Method,
		Trail: res.Trail, Fingerprint: hash, Cache: "bypass",
		Metrics: &serve.MetricsSummary{Imbalance: rep.Load.Imbalance, TotalIPC: rep.TotalIPC, TotalVolume: rep.TotalVolume},
	}
	resp.Assignment = make([]int, comp.Graph.NumTasks)
	for i := range resp.Assignment {
		resp.Assignment[i] = m.ProcOf(i)
	}
	for _, lm := range rep.Links {
		resp.Metrics.MaxContention = max(resp.Metrics.MaxContention, lm.MaxContention)
		resp.Metrics.MaxDilation = max(resp.Metrics.MaxDilation, lm.MaxDilation)
	}
	// The server encodes a computed response twice: once to size its
	// cache entry and once onto the wire.
	if _, err := json.Marshal(resp); err != nil {
		return nil, err
	}
	_ = encodeResponse(&resp)
	t.end()

	if checked {
		t.begin("check.verify")
		rep2, err := metrics.Compute(m)
		if err != nil {
			rep2 = nil
		}
		vs := check.Verify(m.Graph, m.Net, m, rep2)
		t.end()
		if len(vs) > 0 {
			return nil, fmt.Errorf("oracle: %s", check.Render(vs))
		}
	}

	counts := map[string]float64{
		"larcs.tasks": float64(comp.Graph.NumTasks),
		"larcs.edges": float64(comp.Graph.NumEdges()),
	}
	attempts := 1
	if algo == "" {
		for i, c := range autoOrder {
			if c == res.Class {
				attempts = i + 1
			}
		}
	}
	counts["core.class_attempts"] = float64(attempts)
	var rounds, hops int
	for _, st := range res.RouteStats {
		rounds += st.Rounds
		hops += st.TotalHops
	}
	counts["route.rounds"], counts["route.total_hops"] = float64(rounds), float64(hops)
	if res.Class == core.ClassMultilevel {
		// core.Result carries the engine's statistics only in its Trail.
		found := false
		for _, line := range res.Trail {
			var lv, coarse, tasks, moves int
			if _, err := fmt.Sscanf(line, "multilevel: %d levels (coarsest %d of %d tasks), %d refine moves", &lv, &coarse, &tasks, &moves); err == nil {
				counts["multilevel.levels"] = float64(lv)
				counts["multilevel.coarsest_tasks"] = float64(coarse)
				counts["multilevel.refine_moves"] = float64(moves)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("multilevel statistics missing from the trail %q", res.Trail)
		}
	}
	return &replayed{m: m, resp: resp, fp: fp, fpHash: hash, counts: counts}, nil
}

// replayHit replays a cache hit: decode and resolve, the integrity
// fingerprint of the cached mapping, and the response encoding. The
// mapper does not run.
func replayHit(t *tracer, body []byte, cached *replayed) error {
	t.begin("replay")
	defer t.end()
	if _, _, _, _, err := decodeResolve(t, body); err != nil {
		return err
	}
	t.begin("check.fingerprint")
	fp := check.Fingerprint(cached.m)
	t.end()
	if fp != cached.fp {
		return fmt.Errorf("cached mapping changed since it was computed")
	}
	t.begin("serve.encode")
	resp := cached.resp
	resp.Cache = "hit"
	_ = encodeResponse(&resp)
	t.end()
	return nil
}
