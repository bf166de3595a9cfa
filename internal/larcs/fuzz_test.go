package larcs_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/larcs"
	"oregami/internal/workload"
)

// parseSeeds is the seed corpus of FuzzLaRCSParse, which
// FuzzCompileDifferential shares.
func parseSeeds() []string {
	var seeds []string
	for _, w := range workload.All() {
		seeds = append(seeds, w.Source)
	}
	for seed := int64(0); seed < 8; seed++ {
		seeds = append(seeds, gen.Program(gen.Rand(seed)).Source)
	}
	return append(seeds,
		"algorithm a;\nconst k = - -1;\nnodetype c 0..3;\ncomphase p { c(0) -> c(1); }\nphases (p; p)^2^k; eps || p;\n",
		"algorithm a(n)\nnodetype",
		"-- comment only\n")
}

// FuzzLaRCSParse asserts the front end's two safety properties on
// arbitrary input: Parse never panics, and any program that parses
// survives a print→reparse round trip with Format a fixed point.
func FuzzLaRCSParse(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := larcs.ParseOnly(src) // must not panic
		if err != nil {
			return
		}
		// Semantic analysis must not panic either, whatever it decides.
		_, _ = larcs.Parse(src)

		printed := larcs.Format(prog)
		prog2, err := larcs.ParseOnly(printed)
		if err != nil {
			t.Fatalf("printed form of a valid program does not reparse: %v\nsource:\n%s\nprinted:\n%s",
				err, src, printed)
		}
		if printed2 := larcs.Format(prog2); printed2 != printed {
			t.Fatalf("Format is not a fixed point\nsource:\n%s\nfirst:\n%s\nsecond:\n%s",
				src, printed, printed2)
		}
	})
}

// compileErrorSources exercise every failure the compiler reports, each
// with the bindings that trigger it.
var compileErrorSources = []struct {
	src      string
	bindings map[string]int
}{
	// Division and modulo by zero in every expression position.
	{"algorithm d(n); nodetype t 0..9; comphase c { forall i in 0..9 : t(i) -> t(i / n); }", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; comphase c { forall i in 0..9 : t(i) -> t(i div n); }", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; comphase c { forall i in 0..9 if i mod n == 0 : t(i) -> t(0); }", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; comphase c { forall i in 0..9 : t(i) -> t(0) volume 1 mod n; }", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; comphase c { forall i in 0..9, j in 0..10 / n : t(i) -> t(j); }", map[string]int{"n": 0}},
	{"algorithm d(n); const k = 4 / n; nodetype t 0..k;", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9 / n;", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; exphase e cost 10 / (i - 3) at t(i);", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; exphase e cost 10 mod n;", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; exphase e; phases e^(3 / n);", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; comphase f(s) in 0..2 { t(s) -> t(s + 1); } phases f(2 / n);", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; comphase f(s) in 0..9 div n { t(s) -> t(0); }", map[string]int{"n": 0}},
	{"algorithm d(n); nodetype t 0..9; exphase e; phases forall s in 0..2 mod n : e;", map[string]int{"n": 0}},
	// Out-of-range and negative results.
	{"algorithm m(n); nodetype t 0..9; comphase c { forall i in 0..9 : t((i - 5) mod n) -> t(9 - (i mod (0 - n)) mod n) volume (i - 5) div 2 + 9; }", map[string]int{"n": 4}},
	{"algorithm r(n); nodetype t 0..n-1; comphase c { forall i in 0..n-1 : t(i) -> t(i+1); }", map[string]int{"n": 5}},
	{"algorithm r(n); nodetype c 0..n-1, 1..n; comphase p { forall i in 0..n-1 : c(i, 0) -> c(i, 1); }", map[string]int{"n": 3}},
	{"algorithm v(n); nodetype t 0..9; comphase c { forall i in 0..9 : t(i) -> t(9 - i) volume i - n; }", map[string]int{"n": 4}},
	{"algorithm x(n); const k = 2 ^ n; nodetype t 0..3;", map[string]int{"n": 50}},
	{"algorithm x(n); nodetype t 0..3; comphase c { t(0) -> t(1) volume n ^ (0 - 1); }", map[string]int{"n": 2}},
	{"algorithm x(n); nodetype t 0..3; comphase c { t(0) -> t(1) volume (0 - 1) ^ n + 0 ^ n + 1 ^ n + 0 ^ 0 + (0 - 1) ^ (n + 1); }", map[string]int{"n": 5}},
	{"algorithm x(n); nodetype t 0..3; exphase e; phases e^(1 - n);", map[string]int{"n": 3}},
	{"algorithm x(n); nodetype t 0..3; comphase f(s) in 0..n { t(0) -> t(s); } phases f(n + 1);", map[string]int{"n": 2}},
	{"algorithm x(n); nodetype t 0..3; comphase f(s) in 0..n { t(0) -> t(s); }", map[string]int{"n": 5}},
	// Empty ranges and limits.
	{"algorithm e(n); nodetype t 0..n-1;", map[string]int{"n": 0}},
	{"algorithm e(n); nodetype t 0..3; comphase f(s) in 1..n { t(0) -> t(s); }", map[string]int{"n": 0}},
	{"algorithm e(n); nodetype t 0..3; comphase f(s) in 0..n { t(0) -> t(0); }", map[string]int{"n": 5000}},
	{"algorithm e(n); nodetype t 0..n, 0..n;", map[string]int{"n": 1 << 11}},
	{"algorithm e(n); nodetype t 0..n; nodetype u 0..n;", map[string]int{"n": 1 << 19}},
	{"algorithm e(n); nodetype t 0..n; comphase c { forall i in 0..n, j in 0..n : t(i) -> t(j); }", map[string]int{"n": 100}},
	{"algorithm e(n); nodetype t 0..9; comphase c { forall i in 0..9, j in i..9 if i + j > n : t(i) -> t(j) volume j - i; } exphase w cost i * n at t(i); phases forall s in 0..n : (c; w)^s;", map[string]int{"n": 3}},
	// Unbound parameters and imports.
	{"algorithm u(n); nodetype t 0..n;", nil},
	{"algorithm u(n); import s; nodetype t 0..n;", map[string]int{"n": 2}},
}

// sameCompile compiles prog with Compile and with the referee and
// describes the first difference, or returns "".
func sameCompile(prog *larcs.Program, bindings map[string]int, lim larcs.Limits) string {
	got, gerr := prog.Compile(bindings, lim)
	want, werr := larcs.RefCompile(prog, bindings, lim)
	if gerr != nil || werr != nil {
		switch {
		case gerr == nil || werr == nil:
			return fmt.Sprintf("error %v, referee %v", gerr, werr)
		case gerr.Error() != werr.Error():
			return fmt.Sprintf("error %q, referee %q", gerr, werr)
		case errors.Is(gerr, larcs.ErrDivideByZero) != errors.Is(werr, larcs.ErrDivideByZero):
			return fmt.Sprintf("error %v: ErrDivideByZero wrapping differs from the referee", gerr)
		case reflect.TypeOf(gerr) != reflect.TypeOf(werr):
			return fmt.Sprintf("error %v: type %T, referee %T", gerr, gerr, werr)
		}
		return ""
	}
	g, w := got.Graph, want.Graph
	if g.Name != w.Name || g.NumTasks != w.NumTasks {
		return fmt.Sprintf("graph %q/%d, referee %q/%d", g.Name, g.NumTasks, w.Name, w.NumTasks)
	}
	if !slices.Equal(g.Labels, w.Labels) {
		return fmt.Sprintf("labels %q, referee %q", g.Labels, w.Labels)
	}
	if len(g.Comm) != len(w.Comm) {
		return fmt.Sprintf("%d comm phases, referee %d", len(g.Comm), len(w.Comm))
	}
	for i, p := range g.Comm {
		q := w.Comm[i]
		if p.Name != q.Name || len(p.Edges) != len(q.Edges) {
			return fmt.Sprintf("comm phase %d: %q with %d edges, referee %q with %d", i, p.Name, len(p.Edges), q.Name, len(q.Edges))
		}
		for k, e := range p.Edges {
			r := q.Edges[k]
			if e.From != r.From || e.To != r.To || math.Float64bits(e.Weight) != math.Float64bits(r.Weight) {
				return fmt.Sprintf("phase %q edge %d: %+v, referee %+v", p.Name, k, e, r)
			}
		}
	}
	if len(g.Exec) != len(w.Exec) {
		return fmt.Sprintf("%d exec phases, referee %d", len(g.Exec), len(w.Exec))
	}
	for i, p := range g.Exec {
		q := w.Exec[i]
		if p.Name != q.Name || math.Float64bits(p.Uniform) != math.Float64bits(q.Uniform) ||
			(p.Cost == nil) != (q.Cost == nil) || !slices.EqualFunc(p.Cost, q.Cost, sameBits) {
			return fmt.Sprintf("exec phase %d: %+v, referee %+v", i, *p, *q)
		}
	}
	gc, wc := g.CSR(), w.CSR()
	if gc.N != wc.N || !slices.Equal(gc.Off, wc.Off) || !slices.Equal(gc.Adj, wc.Adj) || !slices.EqualFunc(gc.W, wc.W, sameBits) {
		return "CSR differs from the referee's"
	}
	if !reflect.DeepEqual(got.Phases, want.Phases) {
		return fmt.Sprintf("phases %v, referee %v", got.Phases, want.Phases)
	}
	if !reflect.DeepEqual(got.NodeTypes, want.NodeTypes) {
		return fmt.Sprintf("nodetypes %+v, referee %+v", got.NodeTypes, want.NodeTypes)
	}
	if got.Program != want.Program || !reflect.DeepEqual(got.Bindings, want.Bindings) {
		return "program or bindings differ from the referee's"
	}
	return ""
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCompileMatchesReferee holds Compile to the tree-walking referee
// over the workload corpus at its defaults and with each parameter
// swept through small, zero and negative values, over 64 generated
// programs, and over a table of programs that fail in every way the
// compiler reports, at default and tight limits.
func TestCompileMatchesReferee(t *testing.T) {
	check := func(what, src string, bindings map[string]int, lim larcs.Limits) {
		t.Helper()
		prog, err := larcs.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := sameCompile(prog, bindings, lim); d != "" {
			t.Errorf("%s %v %+v: %s", what, bindings, lim, d)
		}
	}
	tight := larcs.Limits{MaxTasks: 40, MaxEdges: 50}
	for _, w := range workload.All() {
		check(w.Name, w.Source, w.Bindings(nil), larcs.Limits{})
		check(w.Name, w.Source, w.Bindings(nil), tight)
		for name := range w.Defaults {
			for _, v := range []int{-1, 0, 1, 2, 3, 7} {
				check(w.Name, w.Source, w.Bindings(map[string]int{name: v}), larcs.Limits{})
			}
		}
	}
	for seed := int64(0); seed < 64; seed++ {
		p := gen.Program(gen.Rand(seed))
		check(fmt.Sprintf("gen seed %d", seed), p.Source, p.Bindings, larcs.Limits{})
		check(fmt.Sprintf("gen seed %d", seed), p.Source, p.Bindings, tight)
	}
	for i, tc := range compileErrorSources {
		check(fmt.Sprintf("error case %d", i), tc.src, tc.bindings, larcs.Limits{})
		check(fmt.Sprintf("error case %d", i), tc.src, tc.bindings, tight)
	}
}

// FuzzCompileDifferential compiles fuzzer-mutated programs with
// fuzzer-chosen bindings and limits through Compile and the referee,
// which must agree on every output and on the error text.
func FuzzCompileDifferential(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src, uint8(3), uint8(2), uint8(255), uint8(255))
	}
	for _, tc := range compileErrorSources {
		f.Add(tc.src, uint8(0), uint8(1), uint8(8), uint8(16))
	}
	f.Fuzz(func(t *testing.T, src string, b0, b1, maxTasks, maxEdges uint8) {
		prog, err := larcs.Parse(src)
		if err != nil || !boundedLoops(prog) {
			return
		}
		// Params and imports take values 0..7 in turn from b0 and b1; a
		// value of 8 leaves the name unbound.
		bindings := map[string]int{}
		names := append(append([]string(nil), prog.Params...), prog.Imports...)
		for i, name := range names {
			v := int(b0) % 9
			if i%2 == 1 {
				v = int(b1) % 9
			}
			if v < 8 {
				bindings[name] = v
			}
		}
		lim := larcs.Limits{MaxTasks: 1 + int(maxTasks)*4, MaxEdges: 1 + int(maxEdges)*16}
		if d := sameCompile(prog, bindings, lim); d != "" {
			t.Fatalf("%s\nbindings %v, limits %+v\nsource:\n%s", d, bindings, lim, src)
		}
	})
}

// loopBound caps every value a loop can range over in a fuzzed program:
// bindings are at most 7, and boundedLoops rejects programs whose
// consts, nodetype dimensions or loop ranges could exceed the cap, so a
// guarded-out rule cannot spin through billions of iterations.
const loopBound = 12

// boundedLoops reports whether every const, nodetype bound and loop
// range of prog is statically bounded by loopBound in magnitude, and no
// rule nests more than three quantifiers.
func boundedLoops(prog *larcs.Program) bool {
	ok := func(es ...larcs.Expr) bool {
		for _, e := range es {
			if magnitude(e) > loopBound {
				return false
			}
		}
		return true
	}
	for _, c := range prog.Consts {
		if !ok(c.Val) {
			return false
		}
	}
	for _, nt := range prog.NodeTypes {
		for _, d := range nt.Dims {
			if !ok(d.Lo, d.Hi) {
				return false
			}
		}
	}
	for _, cp := range prog.CommPhases {
		if cp.Param != "" && !ok(cp.Range.Lo, cp.Range.Hi) {
			return false
		}
		for _, r := range cp.Rules {
			if len(r.Vars) > 3 {
				return false
			}
			for _, rg := range r.Ranges {
				if !ok(rg.Lo, rg.Hi) {
					return false
				}
			}
		}
	}
	return prog.PhaseExpr == nil || pexprBounded(prog.PhaseExpr, ok)
}

func pexprBounded(e larcs.PExpr, ok func(...larcs.Expr) bool) bool {
	switch v := e.(type) {
	case larcs.PSeq:
		for _, p := range v.Parts {
			if !pexprBounded(p, ok) {
				return false
			}
		}
	case larcs.PPar:
		for _, p := range v.Parts {
			if !pexprBounded(p, ok) {
				return false
			}
		}
	case larcs.PRep:
		return pexprBounded(v.Body, ok)
	case larcs.PForall:
		return ok(v.Range.Lo, v.Range.Hi) && pexprBounded(v.Body, ok)
	}
	return true
}

// magnitude over-approximates |e| when every identifier is bounded by
// loopBound, saturating at 1<<40.
func magnitude(e larcs.Expr) int {
	const most = 1 << 40
	sat := func(x int) int { return min(x, most) }
	switch v := e.(type) {
	case larcs.Num:
		if v.V < 0 {
			return most // the parser makes no negative literals
		}
		return sat(v.V)
	case larcs.Var:
		return loopBound
	case larcs.Unary:
		if v.Op == "-" {
			return magnitude(v.X)
		}
		return 1
	case larcs.Binary:
		a, b := magnitude(v.L), magnitude(v.R)
		switch v.Op {
		case "+", "-":
			return sat(a + b)
		case "*":
			if a != 0 && b > most/a {
				return most
			}
			return a * b
		case "/", "div":
			return a
		case "mod":
			return b
		case "^":
			if a <= 1 {
				return 1
			}
			p := 1
			for i := 0; i < b && p < most; i++ {
				p = sat(p * a)
			}
			return p
		}
		return 1
	}
	return most
}
