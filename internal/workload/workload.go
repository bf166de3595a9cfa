// Package workload is the corpus of LaRCS programs the paper reports
// describing (Section 3): the n-body problem, matrix multiplication,
// fast Fourier transform, topological sort (pipeline), divide-and-conquer
// on binomial trees, simulated annealing, the Jacobi iterative method,
// successive over-relaxation, and perfect-broadcast distributed voting.
//
// Each workload is a LaRCS source string plus default parameter
// bindings, compiled on demand. The corpus powers the examples,
// integration tests, and the C5 compactness experiment.
package workload

import (
	"fmt"
	"sort"

	"oregami/internal/larcs"
)

// Workload is one entry of the corpus.
type Workload struct {
	Name string
	// Source is the LaRCS program text.
	Source string
	// Defaults binds every parameter and import for a representative
	// instance.
	Defaults map[string]int
	// About is a one-line description.
	About string
}

// NBody is the paper's running example (Fig 2): a ring of n bodies with
// ring and chordal communication, n odd.
const NBody = `
-- n-body problem (Seitz's Cosmic Cube algorithm), paper Fig 2.
algorithm nbody(n);
import s;
nodetype body 0..n-1;
nodesymmetric;
comphase ring {
    forall i in 0..n-1 : body(i) -> body((i+1) mod n) volume 1;
}
comphase chordal {
    forall i in 0..n-1 : body(i) -> body((i + (n+1)/2) mod n) volume 1;
}
exphase compute1 cost n;
exphase compute2 cost n;
phases ((ring; compute1)^((n+1)/2); chordal; compute2)^s;
`

// Broadcast8 is the 8-node perfect broadcast ("elect a leader") example
// of Fig 4, whose communication functions generate the cyclic group Z8.
const Broadcast8 = `
-- Perfect broadcast distributed voting on 8 nodes, paper Fig 4.
algorithm broadcast8;
nodetype task 0..7;
nodesymmetric;
comphase comm1 {
    forall i in 0..7 : task(i) -> task((i+1) mod 8);
}
comphase comm2 {
    forall i in 0..7 : task(i) -> task((i+2) mod 8);
}
comphase comm3 {
    forall i in 0..7 : task(i) -> task((i+4) mod 8);
}
exphase vote cost 1;
phases comm1; vote; comm2; vote; comm3; vote;
`

// Jacobi is the five-point-stencil Jacobi iteration on an n x n grid.
const Jacobi = `
-- Jacobi iterative method for Laplace's equation on a rectangle.
algorithm jacobi(n, iters);
nodetype cell 0..n-1, 0..n-1;
comphase exchange {
    forall i in 0..n-1, j in 0..n-2 : cell(i,j) -> cell(i,j+1);
    forall i in 0..n-1, j in 1..n-1 : cell(i,j) -> cell(i,j-1);
    forall i in 0..n-2, j in 0..n-1 : cell(i,j) -> cell(i+1,j);
    forall i in 1..n-1, j in 0..n-1 : cell(i,j) -> cell(i-1,j);
}
exphase update cost 5;
phases (exchange; update)^iters;
`

// SOR is red-black successive over-relaxation: the red half-sweep sends
// to black neighbors and vice versa.
const SOR = `
-- Red-black successive over-relaxation on an n x n grid.
algorithm sor(n, iters);
nodetype cell 0..n-1, 0..n-1;
comphase redtoblack {
    forall i in 0..n-1, j in 0..n-2 if (i+j) mod 2 == 0 : cell(i,j) -> cell(i,j+1);
    forall i in 0..n-1, j in 1..n-1 if (i+j) mod 2 == 0 : cell(i,j) -> cell(i,j-1);
    forall i in 0..n-2, j in 0..n-1 if (i+j) mod 2 == 0 : cell(i,j) -> cell(i+1,j);
    forall i in 1..n-1, j in 0..n-1 if (i+j) mod 2 == 0 : cell(i,j) -> cell(i-1,j);
}
comphase blacktored {
    forall i in 0..n-1, j in 0..n-2 if (i+j) mod 2 == 1 : cell(i,j) -> cell(i,j+1);
    forall i in 0..n-1, j in 1..n-1 if (i+j) mod 2 == 1 : cell(i,j) -> cell(i,j-1);
    forall i in 0..n-2, j in 0..n-1 if (i+j) mod 2 == 1 : cell(i,j) -> cell(i+1,j);
    forall i in 1..n-1, j in 0..n-1 if (i+j) mod 2 == 1 : cell(i,j) -> cell(i-1,j);
}
exphase relaxred cost 3;
exphase relaxblack cost 3;
phases (redtoblack; relaxblack; blacktored; relaxred)^iters;
`

// MatMul is Cannon's algorithm for matrix multiplication on an n x n
// torus of processes: repeated left/up shifts with a multiply step.
const MatMul = `
-- Cannon's matrix multiplication on an n x n torus.
algorithm matmul(n);
nodetype pe 0..n-1, 0..n-1;
nodesymmetric;
comphase shiftleft {
    forall i in 0..n-1, j in 0..n-1 : pe(i,j) -> pe(i, (j+n-1) mod n) volume n;
}
comphase shiftup {
    forall i in 0..n-1, j in 0..n-1 : pe(i,j) -> pe((i+n-1) mod n, j) volume n;
}
exphase multiply cost n;
phases (multiply; shiftleft; shiftup)^n;
`

// FFT16 is a 16-point fast Fourier transform: four butterfly stages.
// Stage s exchanges partners differing in bit s; the partner index is
// expressed arithmetically since labels are plain integers.
const FFT16 = `
-- 16-point FFT; one comphase per butterfly stage.
algorithm fft16;
nodetype pt 0..15;
nodesymmetric;
comphase stage0 {
    forall i in 0..15 : pt(i) -> pt(i + 1 - 2*(i mod 2));
}
comphase stage1 {
    forall i in 0..15 : pt(i) -> pt(i + 2 - 4*((i div 2) mod 2));
}
comphase stage2 {
    forall i in 0..15 : pt(i) -> pt(i + 4 - 8*((i div 4) mod 2));
}
comphase stage3 {
    forall i in 0..15 : pt(i) -> pt(i + 8 - 16*((i div 8) mod 2));
}
exphase twiddle cost 2;
phases stage0; twiddle; stage1; twiddle; stage2; twiddle; stage3; twiddle;
`

// Binomial is the divide-and-conquer binomial tree B_k of [LRG+89]: the
// combine phase aggregates level by level toward the root.
const Binomial = `
-- Divide and conquer on the binomial tree B_k (2^k tasks).
algorithm binomial(k);
const n = 2^k;
nodetype tree 0..n-1;
comphase combine {
    forall s in 0..k-1, j in 0..2^s-1 : tree(j + 2^s) -> tree(j) volume 1;
}
exphase solve cost 4;
phases solve; combine;
`

// Annealing is a ring-exchange simulated annealing: neighbors trade
// boundary state each sweep.
const Annealing = `
-- Simulated annealing with ring exchange of boundary regions.
algorithm annealing(n, sweeps);
nodetype region 0..n-1;
nodesymmetric;
comphase swap {
    forall i in 0..n-1 : region(i) -> region((i+1) mod n) volume 2;
    forall i in 0..n-1 : region(i) -> region((i+n-1) mod n) volume 2;
}
exphase anneal cost 10;
phases (anneal; swap)^sweeps;
`

// TopSort is a pipelined topological sort on a linear array of tasks:
// each wavefront forwards frontier vertices to the next stage.
const TopSort = `
-- Pipelined topological sort: wavefronts flow down a linear array.
algorithm topsort(n);
nodetype stage 0..n-1;
comphase forward {
    forall i in 0..n-2 : stage(i) -> stage(i+1) volume 2;
}
exphase scan cost 3;
phases (scan; forward)^n;
`

// Voting is the parametric perfect-broadcast voting ring of [HF88]: in
// round r, task i sends to i + 2^r. For n = 2^k every task has every
// vote after k rounds. Rounds share one comphase per round up to 4.
const Voting = `
-- Perfect broadcast distributed voting, parametric in n = 2^k (k <= 4).
algorithm voting(n);
nodetype voter 0..n-1;
nodesymmetric;
comphase round1 {
    forall i in 0..n-1 : voter(i) -> voter((i+1) mod n);
}
comphase round2 {
    forall i in 0..n-1 if n > 2 : voter(i) -> voter((i+2) mod n);
}
comphase round3 {
    forall i in 0..n-1 if n > 4 : voter(i) -> voter((i+4) mod n);
}
comphase round4 {
    forall i in 0..n-1 if n > 8 : voter(i) -> voter((i+8) mod n);
}
exphase tally cost 1;
phases round1; tally; round2; tally; round3; tally; round4; tally;
`

// FFTN is the fully parametric fast Fourier transform on n = 2^k
// points: a parameterized phase family gives one butterfly stage per
// bit, and the phase expression's parameterized for-loop (paper
// Section 3: repetition counts "can be ... a parameterized for loop")
// sequences them. Stage s exchanges partners differing in bit s.
const FFTN = `
-- Parametric FFT: k butterfly stages over 2^k points.
algorithm fftn(k);
const n = 2^k;
nodetype pt 0..n-1;
nodesymmetric;
comphase stage(s) in 0..k-1 {
    forall i in 0..n-1 : pt(i) -> pt(i + 2^s - 2*(2^s)*((i div 2^s) mod 2));
}
exphase twiddle cost 2;
phases forall s in 0..k-1 : (stage(s); twiddle);
`

// SystolicMM is the matrix-product uniform recurrence (no wraparound):
// data flows right and down through an n x n array. Its affine,
// constant-vector dependencies make it eligible for the systolic
// space-time mapper (Section 4.2.1).
const SystolicMM = `
-- Matrix multiplication as a uniform recurrence for systolic synthesis.
algorithm systolicmm(n);
nodetype cell 0..n-1, 0..n-1;
comphase aflow {
    forall i in 0..n-1, j in 0..n-2 : cell(i,j) -> cell(i,j+1);
}
comphase bflow {
    forall i in 0..n-2, j in 0..n-1 : cell(i,j) -> cell(i+1,j);
}
exphase mac cost 1;
phases (aflow || bflow; mac)^n;
`

// FIR is a one-dimensional convolution recurrence: each cell forwards
// samples to its successor.
const FIR = `
-- FIR filter / convolution as a 1-D uniform recurrence.
algorithm fir(n);
nodetype tap 0..n-1;
comphase sample {
    forall i in 0..n-2 : tap(i) -> tap(i+1);
}
exphase mac cost 1;
phases (sample; mac)^n;
`

// registry is the corpus, built once at package init. It is never
// handed out directly: All and ByName return copies (with copied
// Defaults maps) so no caller mutation can poison the registry.
var registry = buildRegistry()

func buildRegistry() []Workload {
	return []Workload{
		{"nbody", NBody, map[string]int{"n": 15, "s": 2}, "n-body on a chordal ring (paper Fig 2)"},
		{"broadcast8", Broadcast8, nil, "8-node perfect broadcast (paper Fig 4)"},
		{"jacobi", Jacobi, map[string]int{"n": 8, "iters": 10}, "Jacobi 5-point stencil"},
		{"sor", SOR, map[string]int{"n": 8, "iters": 10}, "red-black SOR"},
		{"matmul", MatMul, map[string]int{"n": 4}, "Cannon matrix multiply on a torus"},
		{"fft16", FFT16, nil, "16-point FFT butterfly"},
		{"fftn", FFTN, map[string]int{"k": 4}, "parametric FFT (phase family per stage)"},
		{"binomial", Binomial, map[string]int{"k": 4}, "divide and conquer binomial tree"},
		{"annealing", Annealing, map[string]int{"n": 16, "sweeps": 5}, "simulated annealing ring"},
		{"systolicmm", SystolicMM, map[string]int{"n": 4}, "uniform-recurrence matrix multiply (systolic)"},
		{"fir", FIR, map[string]int{"n": 8}, "FIR filter 1-D recurrence (systolic)"},
		{"topsort", TopSort, map[string]int{"n": 8}, "pipelined topological sort"},
		{"voting", Voting, map[string]int{"n": 16}, "parametric perfect-broadcast voting"},
	}
}

// copied returns a defensive copy of w whose Defaults map the caller
// may mutate freely.
func (w Workload) copied() Workload {
	if w.Defaults != nil {
		d := make(map[string]int, len(w.Defaults))
		for k, v := range w.Defaults {
			d[k] = v
		}
		w.Defaults = d
	}
	return w
}

// All returns the corpus with representative default bindings. The
// returned slice and its Defaults maps are copies; mutating them does
// not affect later calls.
func All() []Workload {
	out := make([]Workload, len(registry))
	for i, w := range registry {
		out[i] = w.copied()
	}
	return out
}

// ByName returns the named workload (a copy; see All).
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w.copied(), nil
		}
	}
	names := make([]string, 0, len(registry))
	for _, w := range registry {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return Workload{}, fmt.Errorf("workload: unknown workload %q (have %v)", name, names)
}

// Bindings returns a fresh map of the workload's default bindings
// overridden by the given ones. A Workload holding only a Source (an
// inline or file program) has no defaults, so it returns a copy of
// overrides.
func (w Workload) Bindings(overrides map[string]int) map[string]int {
	out := make(map[string]int, len(w.Defaults)+len(overrides))
	for k, v := range w.Defaults {
		out[k] = v
	}
	for k, v := range overrides {
		out[k] = v
	}
	return out
}

// Compile parses and compiles the workload with its default bindings
// overridden by the provided ones.
func (w Workload) Compile(overrides map[string]int) (*larcs.Compiled, error) {
	prog, err := larcs.Parse(w.Source)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", w.Name, err)
	}
	c, err := prog.Compile(w.Bindings(overrides), larcs.Limits{})
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", w.Name, err)
	}
	return c, nil
}
