package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"oregami/internal/gen"
	"oregami/internal/serve"
)

// A key is one distinct mapping request: a program, its bindings, the
// target network and the mapper class. The serving flags (nocache,
// check) are not part of it; they vary per request.
type key struct {
	label string
	req   serve.MapRequest
	// generated marks a program made from the seed. Its quality cannot
	// be compared between seeds, so it stays out of the quality columns.
	generated bool
}

func corpusKey(name string, bindings map[string]int, net, algo string) key {
	label := name
	for _, p := range []string{"n", "k"} {
		if v, ok := bindings[p]; ok {
			label += fmt.Sprintf(" %s=%d", p, v)
		}
	}
	if algo != "" {
		label += " algo=" + algo
	}
	return key{
		label: label + " @" + net,
		req:   serve.MapRequest{Workload: name, Bindings: bindings, Net: net, Options: &serve.MapRequestOptions{Algo: algo}},
	}
}

// body is the JSON request for k with the given serving flags.
func (k key) body(nocache, check bool) []byte {
	r := k.req
	opts := *r.Options
	opts.NoCache, opts.Check = nocache, check
	r.Options = &opts
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request %s: %v", k.label, err))
	}
	return b
}

// sweep is one corpus program with the values its size parameter takes.
type sweep struct {
	name  string
	param string
	vals  []int
}

// hitSweeps is the corpus with parameter sweeps chosen so that every
// auto-mapped key computes in under ~10 ms: populating the warm set is
// set-up work, and it should stay in the hundreds of milliseconds.
var hitSweeps = []sweep{
	{"nbody", "n", []int{5, 7, 9, 11, 13, 15}},
	{"broadcast8", "", nil},
	{"jacobi", "n", []int{4, 6, 8, 10, 12}},
	{"sor", "n", []int{4, 6, 8, 10}},
	{"matmul", "n", []int{2, 3, 4, 5}},
	{"fft16", "", nil},
	{"fftn", "k", []int{2, 3, 4, 5, 6}},
	{"binomial", "k", []int{2, 3, 4, 5, 6, 7}},
	{"annealing", "n", []int{4, 8, 12, 16, 20, 24, 32}},
	{"systolicmm", "n", []int{2, 3, 4, 5, 6, 7, 8}},
	{"fir", "n", []int{4, 8, 12, 16, 24, 32}},
	{"topsort", "n", []int{4, 8, 12, 16, 24, 32}},
	{"voting", "n", []int{2, 4, 8, 16}},
}

var hitNets = []string{"hypercube:4", "mesh:4,4", "hypercube:6"}

// hitKeys is the hit-mix warm set: every sweep point on every target.
// It is the same for every seed; the seed draws the request order.
func hitKeys() []key {
	var keys []key
	for _, s := range hitSweeps {
		vals := s.vals
		if s.param == "" {
			vals = []int{0}
		}
		for _, v := range vals {
			for _, net := range hitNets {
				var b map[string]int
				if s.param != "" {
					b = map[string]int{s.param: v}
				}
				keys = append(keys, corpusKey(s.name, b, net, ""))
			}
		}
	}
	return keys
}

// coldHeavy are cold-mix's expensive requests: group-theoretic
// contractions of n-body rings on hypercube:6, tens to hundreds of
// milliseconds for at most 35 tasks. Their costs are well apart, so the
// workload's p95, which falls in the middle of them, is the latency of
// one of them rather than an edge between two.
var coldHeavy = []int{19, 23, 29, 31, 35}

// coldLightKeys is the fixed part of the rest of the cold-mix key space.
// With the generated programs it covers the four auto classes and the
// explicit multilevel class.
func coldLightKeys() []key {
	type spec struct {
		name string
		b    map[string]int
		net  string
		algo string
	}
	n := func(v int) map[string]int { return map[string]int{"n": v} }
	k := func(v int) map[string]int { return map[string]int{"k": v} }
	specs := []spec{
		// canned
		{"jacobi", n(8), "hypercube:6", ""},
		{"jacobi", n(12), "mesh:4,4", ""},
		{"sor", n(8), "hypercube:4", ""},
		{"fftn", k(5), "hypercube:4", ""},
		{"fftn", k(6), "mesh:4,4", ""},
		{"fir", n(16), "hypercube:4", ""},
		{"binomial", k(6), "hypercube:6", ""},
		// systolic
		{"systolicmm", n(4), "mesh:4,4", ""},
		{"systolicmm", n(6), "mesh:4,4", ""},
		{"systolicmm", n(8), "mesh:4,4", ""},
		// group-theoretic
		{"nbody", n(11), "hypercube:4", ""},
		{"nbody", n(15), "mesh:4,4", ""},
		{"nbody", n(13), "hypercube:6", ""},
		{"nbody", n(13), "mesh:4,4", ""},
		{"matmul", n(5), "hypercube:6", ""},
		{"matmul", n(6), "hypercube:6", ""},
		{"matmul", n(7), "hypercube:6", ""},
		{"voting", n(16), "mesh:4,4", ""},
		{"broadcast8", nil, "hypercube:6", ""},
		{"fftn", k(5), "hypercube:6", ""},
		// arbitrary
		{"jacobi", n(9), "hypercube:4", ""},
		{"jacobi", n(10), "hypercube:6", ""},
		{"jacobi", n(11), "mesh:4,4", ""},
		{"sor", n(7), "mesh:4,4", ""},
		{"sor", n(10), "hypercube:6", ""},
		{"nbody", n(23), "hypercube:4", ""},
		{"nbody", n(43), "hypercube:4", ""},
		{"matmul", n(7), "hypercube:4", ""},
		{"topsort", n(32), "hypercube:4", ""},
		{"annealing", n(32), "hypercube:6", ""},
		// explicit multilevel
		{"jacobi", n(16), "hypercube:6", "multilevel"},
		{"jacobi", n(20), "mesh:4,4", "multilevel"},
		{"sor", n(12), "hypercube:6", "multilevel"},
		{"sor", n(16), "mesh:4,4", "multilevel"},
		{"annealing", n(64), "hypercube:4", "multilevel"},
	}
	keys := make([]key, len(specs))
	for i, s := range specs {
		keys[i] = corpusKey(s.name, s.b, s.net, s.algo)
	}
	return keys
}

// coldGenPrograms is how many generated programs join the cold-mix key
// space: new sources submitted by users, different for every seed.
const coldGenPrograms = 10

// coldKeys is the cold-mix key space for a seed: the light keys, then
// seeded gen.Program sources (each with its seeded binding of n and a
// seeded small target), then the heavy keys, which come last.
func coldKeys(seed int64) []key {
	keys := coldLightKeys()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < coldGenPrograms; i++ {
		p := gen.Program(r)
		net := hitNets[r.Intn(2)]
		keys = append(keys, key{
			label:     fmt.Sprintf("gen#%d n=%d @%s", i, p.Bindings["n"], net),
			req:       serve.MapRequest{Source: p.Source, Bindings: p.Bindings, Net: net, Options: &serve.MapRequestOptions{}},
			generated: true,
		})
	}
	for _, n := range coldHeavy {
		keys = append(keys, corpusKey("nbody", map[string]int{"n": n}, "hypercube:6", ""))
	}
	return keys
}

// fixedKeys counts the keys that are the same for every seed.
func fixedKeys(keys []key) int {
	n := 0
	for _, k := range keys {
		if !k.generated {
			n++
		}
	}
	return n
}

// mlKey is ml-stencil's one request: a 100x100 Jacobi stencil (1e4
// tasks) mapped by the multilevel engine onto a 512-PE hierarchy.
func mlKey() key {
	return corpusKey("jacobi", map[string]int{"n": 100}, "hier:4,4,4,8", "multilevel")
}

// Workload parameters. The open-loop rate and the latency limits are
// quoted in BENCHMARK.json's "why" lines; keep them in step.
const (
	// cold-mix arrivals per second. The connections stay idle most of
	// the time, so a slow stretch of the host builds little queue for
	// the light requests' p50 to measure.
	coldRate     = 20
	coldConns    = 2
	coldCheckNth = 4 // every 4th cold-mix request sets options.check

	hitTailQ  = 0.99
	coldTailQ = 0.95

	hitSLO  = 2 * time.Millisecond
	coldSLO = 1000 * time.Millisecond
	mlSLO   = 2000 * time.Millisecond

	// Parts the measured requests are split into (see loadResult):
	// twenty for hit-mix; for cold-mix one per cycle, and for its tail
	// as many whole cycles as a p95 with ten beyond it needs.
	hitParts = 20

	setupReps = minSamples
	warmup    = time.Second
)

// coldSchedule orders cold-mix requests in cycles. A cycle sends every
// key once: a heavy key at evenly spaced slots, light keys between, each
// group in a fresh seeded order. Heavy requests thus never arrive in a
// burst, and every cycle has the same cost, so a window of whole cycles
// has the same mix for every seed. The keys are light ones followed by
// heavy ones.
func coldSchedule(r *rand.Rand, light, heavy, cycles int) []int {
	size := light + heavy
	stride := size / heavy
	out := make([]int, 0, cycles*size)
	for c := 0; c < cycles; c++ {
		lp, hp := r.Perm(light), r.Perm(heavy)
		for slot := 0; slot < size; slot++ {
			if slot%stride == 0 && len(hp) > 0 {
				out = append(out, light+hp[0])
				hp = hp[1:]
			} else {
				out = append(out, lp[0])
				lp = lp[1:]
			}
		}
	}
	return out
}
