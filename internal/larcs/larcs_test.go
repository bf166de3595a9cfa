package larcs

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"oregami/internal/phase"
)

const nbodySrc = `
-- The paper's running example (Fig 2b): the n-body problem.
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

func compileNBody(t *testing.T, n, s int) *Compiled {
	t.Helper()
	prog, err := Parse(nbodySrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"n": n, "s": s}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNBodyCompile(t *testing.T) {
	c := compileNBody(t, 15, 2)
	g := c.Graph
	if g.NumTasks != 15 {
		t.Fatalf("tasks = %d, want 15", g.NumTasks)
	}
	ring := g.CommPhaseByName("ring")
	chordal := g.CommPhaseByName("chordal")
	if ring == nil || chordal == nil {
		t.Fatal("phases missing")
	}
	if len(ring.Edges) != 15 || len(chordal.Edges) != 15 {
		t.Fatalf("edges: ring=%d chordal=%d, want 15 each", len(ring.Edges), len(chordal.Edges))
	}
	// Ring: i -> i+1 mod 15. Chordal: i -> i+8 mod 15.
	for _, e := range ring.Edges {
		if e.To != (e.From+1)%15 {
			t.Errorf("ring edge %d->%d", e.From, e.To)
		}
	}
	for _, e := range chordal.Edges {
		if e.To != (e.From+8)%15 {
			t.Errorf("chordal edge %d->%d, want ->%d", e.From, e.To, (e.From+8)%15)
		}
	}
	if !g.IsNodeSymmetricCandidate() {
		t.Error("n-body phases should be bijections")
	}
	if g.Labels[0] != "0" || g.Labels[14] != "14" {
		t.Errorf("labels = %v...", g.Labels[:3])
	}
}

func TestNBodyPhaseExpr(t *testing.T) {
	c := compileNBody(t, 15, 3)
	if c.Phases == nil {
		t.Fatal("no phase expression")
	}
	occ := phase.Occurrences(c.Phases)
	if occ["ring"] != 24 || occ["chordal"] != 3 {
		t.Errorf("occurrences = %v", occ)
	}
	steps, err := phase.Flatten(c.Phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3*(8*2+2) {
		t.Errorf("steps = %d, want 54", len(steps))
	}
	// Ref kinds: ring is comm, compute1 is exec.
	if !steps[0].Phases[0].Comm || steps[1].Phases[0].Comm {
		t.Error("comm/exec classification wrong")
	}
}

func TestUnboundParam(t *testing.T) {
	prog, err := Parse(nbodySrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Compile(map[string]int{"n": 5}, Limits{}); err == nil {
		t.Error("missing import binding accepted")
	}
}

func TestMultiDimAndGuard(t *testing.T) {
	src := `
algorithm jacobi(n);
nodetype cell 0..n-1, 0..n-1;
comphase east {
    forall i in 0..n-1, j in 0..n-2 : cell(i,j) -> cell(i,j+1) volume 4;
}
comphase diag {
    forall i in 0..n-1, j in 0..n-1 if i == j : cell(i,j) -> cell((i+1) mod n, (j+1) mod n);
}
exphase update cost i*n+j at cell(i,j);
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"n": 4}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	if g.NumTasks != 16 {
		t.Fatalf("tasks = %d", g.NumTasks)
	}
	east := g.CommPhaseByName("east")
	if len(east.Edges) != 4*3 {
		t.Errorf("east edges = %d, want 12", len(east.Edges))
	}
	if east.Edges[0].Weight != 4 {
		t.Errorf("volume = %g, want 4", east.Edges[0].Weight)
	}
	diag := g.CommPhaseByName("diag")
	if len(diag.Edges) != 4 {
		t.Errorf("diag edges = %d, want 4 (guard)", len(diag.Edges))
	}
	// Per-task cost: task (i,j) costs i*n+j, i.e. its own id.
	up := g.ExecPhaseByName("update")
	for task := 0; task < 16; task++ {
		if up.TaskCost(task) != float64(task) {
			t.Errorf("cost[%d] = %g", task, up.TaskCost(task))
		}
	}
	if g.Labels[5] != "cell(1,1)" {
		t.Errorf("label[5] = %q", g.Labels[5])
	}
	// NodeTypeInfo round trip.
	info := c.NodeTypes[0]
	id, err := info.TaskID([]int{2, 3})
	if err != nil || id != 11 {
		t.Errorf("TaskID(2,3) = %d, %v", id, err)
	}
	idx := info.Index(11)
	if idx[0] != 2 || idx[1] != 3 {
		t.Errorf("Index(11) = %v", idx)
	}
	if _, err := info.TaskID([]int{4, 0}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestPowerAndConst(t *testing.T) {
	src := `
algorithm binomial(k);
const n = 2^k;
nodetype tree 0..n-1;
comphase combine {
    forall s in 0..k-1, j in 0..2^s-1 : tree(j + 2^s) -> tree(j);
}
exphase work;
phases (combine; work)^k;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"k": 4}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph.NumTasks != 16 {
		t.Fatalf("tasks = %d, want 16", c.Graph.NumTasks)
	}
	comb := c.Graph.CommPhaseByName("combine")
	if len(comb.Edges) != 15 {
		t.Errorf("binomial edges = %d, want 15", len(comb.Edges))
	}
	// Every node v>0 sends to v with its highest set bit cleared.
	for _, e := range comb.Edges {
		if e.From <= e.To || e.From-e.To != highestBit(e.From) {
			t.Errorf("edge %d -> %d not a binomial parent link", e.From, e.To)
		}
	}
}

func highestBit(v int) int {
	b := 1
	for b*2 <= v {
		b *= 2
	}
	return b
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		"algorithm a; nodetype t 0..3; comphase p { t(0) -> t(1) volume $; }",
		"algorithm a; nodetype t 0..3x;",
		"algorithm a; nodetype t 0..99999999999999999999;",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("lexer accepted %q", src)
		}
	}
}

func TestParserErrors(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"missing-algorithm", "nodetype t 0..3;"},
		{"missing-semi", "algorithm a"},
		{"bad-range", "algorithm a; nodetype t 0--3;"},
		{"unclosed-comphase", "algorithm a; nodetype t 0..3; comphase p { t(0) -> t(1);"},
		{"missing-arrow", "algorithm a; nodetype t 0..3; comphase p { t(0) t(1); }"},
		{"bad-phase", "algorithm a; nodetype t 0..3; exphase e; phases ^2;"},
	} {
		if _, err := Parse(tc.src); err == nil {
			t.Errorf("%s: parser accepted %q", tc.name, tc.src)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"dup-param", "algorithm a(n, n); nodetype t 0..3;"},
		{"no-nodetype", "algorithm a;"},
		{"dup-nodetype", "algorithm a; nodetype t 0..3; nodetype t 0..3;"},
		{"undefined-var", "algorithm a; nodetype t 0..m;"},
		{"undeclared-ref", "algorithm a; nodetype t 0..3; comphase p { u(0) -> t(1); }"},
		{"arity", "algorithm a; nodetype t 0..3; comphase p { t(0,0) -> t(1); }"},
		{"dup-phase", "algorithm a; nodetype t 0..3; comphase p { } exphase p;"},
		{"shadow", "algorithm a(i); nodetype t 0..3; comphase p { forall i in 0..3 : t(i) -> t(i); }"},
		{"undeclared-phase-ref", "algorithm a; nodetype t 0..3; exphase e; phases e; q;"},
		{"undefined-in-guard", "algorithm a; nodetype t 0..3; comphase p { forall i in 0..3 if i < zz : t(i) -> t(i); }"},
		{"bad-at-arity", "algorithm a; nodetype t 0..3; exphase e cost i at t(i,j);"},
	} {
		if _, err := Parse(tc.src); err == nil {
			t.Errorf("%s: sema accepted %q", tc.name, tc.src)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	prog := func(src string) *Program {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return p
	}
	// Empty range.
	p := prog("algorithm a(n); nodetype t 0..n-1;")
	if _, err := p.Compile(map[string]int{"n": 0}, Limits{}); err == nil {
		t.Error("empty nodetype range accepted")
	}
	// Division by zero.
	p = prog("algorithm a(n); nodetype t 0..3; comphase c { t(0) -> t(4/n); }")
	if _, err := p.Compile(map[string]int{"n": 0}, Limits{}); err == nil {
		t.Error("division by zero accepted")
	}
	// Out-of-range node reference.
	p = prog("algorithm a; nodetype t 0..3; comphase c { t(0) -> t(9); }")
	if _, err := p.Compile(nil, Limits{}); err == nil {
		t.Error("out-of-range node ref accepted")
	}
	// Task limit.
	p = prog("algorithm a(n); nodetype t 0..n-1;")
	if _, err := p.Compile(map[string]int{"n": 100}, Limits{MaxTasks: 10}); err == nil {
		t.Error("task limit not enforced")
	}
	// Edge limit.
	p = prog("algorithm a(n); nodetype t 0..n-1; comphase c { forall i in 0..n-1, j in 0..n-1 : t(i) -> t(j); }")
	if _, err := p.Compile(map[string]int{"n": 50}, Limits{MaxEdges: 100}); err == nil {
		t.Error("edge limit not enforced")
	}
	// Negative repetition.
	p = prog("algorithm a(n); nodetype t 0..3; exphase e; phases e^(0-n);")
	if _, err := p.Compile(map[string]int{"n": 2}, Limits{}); err == nil {
		t.Error("negative repetition accepted")
	}
	// Negative volume.
	p = prog("algorithm a(n); nodetype t 0..3; comphase c { t(0) -> t(1) volume 0-n; }")
	if _, err := p.Compile(map[string]int{"n": 2}, Limits{}); err == nil {
		t.Error("negative volume accepted")
	}
}

func TestEvalOperators(t *testing.T) {
	src := `
algorithm ops(n);
nodetype t 0..20;
comphase c {
    forall i in 0..0 :
        t((0-3) mod 5) -> t(2*3+1 - 7 mod 7) volume (1+2)*3;
    forall i in 0..5 if i >= 2 and i != 3 or i == 0 : t(i) -> t(i+1);
    forall i in 0..5 if not (i < 4) : t(i) -> t(i) volume 17 div 5;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"n": 1}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	edges := c.Graph.CommPhaseByName("c").Edges
	// Rule 1: (-3) mod 5 = 2 (mathematical mod), target 7-0=7, volume 9.
	if edges[0].From != 2 || edges[0].To != 7 || edges[0].Weight != 9 {
		t.Errorf("rule1 edge = %+v", edges[0])
	}
	// Rule 2: i in {0, 2, 4, 5} (i>=2 and i!=3) or i==0.
	var rule2 []int
	for _, e := range edges[1:5] {
		rule2 = append(rule2, e.From)
	}
	want := []int{0, 2, 4, 5}
	for k := range want {
		if k >= len(rule2) || rule2[k] != want[k] {
			t.Fatalf("rule2 sources = %v, want %v", rule2, want)
		}
	}
	// Rule 3: i in {4,5}, volume 3.
	last := edges[len(edges)-1]
	if last.From != 5 || last.Weight != 3 {
		t.Errorf("rule3 last edge = %+v", last)
	}
}

func TestDescriptionSizeVsGraph(t *testing.T) {
	c := compileNBody(t, 101, 1)
	desc := c.Program.DescriptionSize()
	graphSize := c.Graph.NumTasks + c.Graph.NumEdges()
	if desc >= graphSize {
		t.Errorf("description (%d) not smaller than graph (%d) at n=101", desc, graphSize)
	}
}

func TestParallelPhaseExpr(t *testing.T) {
	src := `
algorithm par(n);
nodetype t 0..n-1;
comphase a { forall i in 0..n-1 : t(i) -> t((i+1) mod n); }
comphase b { forall i in 0..n-1 : t(i) -> t((i+2) mod n); }
exphase w cost 1;
phases (a || b; w)^2; eps;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"n": 6}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := phase.Flatten(c.Phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(steps))
	}
	if len(steps[0].Phases) != 2 {
		t.Errorf("step 0 = %v, want a||b", steps[0])
	}
}

func TestCommentStyles(t *testing.T) {
	src := "algorithm a; -- dash comment\n// slash comment\nnodetype t 0..3;\n"
	if _, err := Parse(src); err != nil {
		t.Errorf("comments rejected: %v", err)
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	prog, err := Parse(nbodySrc)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.PhaseExpr.String()
	for _, want := range []string{"ring", "compute1", "chordal", "^s"} {
		if !strings.Contains(s, want) {
			t.Errorf("phase expr string %q missing %q", s, want)
		}
	}
}

func TestMultipleNodeTypes(t *testing.T) {
	src := `
algorithm pipe(n);
nodetype src 0..0;
nodetype worker 0..n-1;
comphase feed { src(0) -> worker(0); }
comphase flow { forall i in 0..n-2 : worker(i) -> worker(i+1); }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"n": 4}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph.NumTasks != 5 {
		t.Fatalf("tasks = %d, want 5", c.Graph.NumTasks)
	}
	if c.Graph.Labels[0] != "src(0)" || c.Graph.Labels[1] != "worker(0)" {
		t.Errorf("labels = %v", c.Graph.Labels)
	}
	feed := c.Graph.CommPhaseByName("feed")
	if feed.Edges[0].From != 0 || feed.Edges[0].To != 1 {
		t.Errorf("feed edge = %+v", feed.Edges[0])
	}
}

func TestUnaryMinusAndNot(t *testing.T) {
	src := `
algorithm um(n);
nodetype t 0..9;
comphase c {
    forall i in 0..3 if not (i == 2) : t(i) -> t(-(-i) + 1);
    forall i in 0..0 : t(5 - -2) -> t(-1 + 3);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"n": 1}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	edges := c.Graph.CommPhaseByName("c").Edges
	// Rule 1: i in {0,1,3}.
	if len(edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(edges))
	}
	if edges[0].From != 0 || edges[0].To != 1 {
		t.Errorf("edge 0 = %+v", edges[0])
	}
	last := edges[3]
	if last.From != 7 || last.To != 2 {
		t.Errorf("unary arithmetic edge = %+v, want 7 -> 2", last)
	}
}

func TestASTStringRenderers(t *testing.T) {
	prog, err := Parse(`
algorithm s(n);
nodetype t 0..n-1;
comphase c { forall i in 0..n-2 if i < n and not (i == 1) or i > 0 : t(i) -> t(i+1) volume -i+2*3; }
exphase e cost n;
phases (c; e)^n || eps;
`)
	if err != nil {
		t.Fatal(err)
	}
	// Exercise Expr.String on the parsed trees.
	rule := prog.CommPhases[0].Rules[0]
	if s := rule.Guard.String(); !strings.Contains(s, "and") || !strings.Contains(s, "or") {
		t.Errorf("guard string = %q", s)
	}
	if s := rule.Volume.String(); !strings.Contains(s, "*") {
		t.Errorf("volume string = %q", s)
	}
	if s := prog.PhaseExpr.String(); !strings.Contains(s, "||") || !strings.Contains(s, "eps") || !strings.Contains(s, "^n") {
		t.Errorf("phase expr string = %q", s)
	}
	if s := prog.NodeTypes[0].Dims[0].Hi.String(); !strings.Contains(s, "-") {
		t.Errorf("range string = %q", s)
	}
}

func TestPowerInPhaseCount(t *testing.T) {
	prog, err := Parse(`
algorithm pc(k);
nodetype t 0..3;
exphase e;
phases e^(2^k);
`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"k": 3}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := phase.Flatten(c.Phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 8 {
		t.Errorf("steps = %d, want 8", len(steps))
	}
}

func TestExponentErrors(t *testing.T) {
	prog, err := Parse("algorithm x(n); nodetype t 0..3; exphase e; phases e^(2^n);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Compile(map[string]int{"n": -1}, Limits{}); err == nil {
		t.Error("negative exponent accepted")
	}
	if _, err := prog.Compile(map[string]int{"n": 60}, Limits{}); err == nil {
		t.Error("overflowing exponent accepted")
	}
}

const familySrc = `
algorithm fam(k);
const n = 2^k;
nodetype pt 0..n-1;
comphase stage(s) in 0..k-1 {
    forall i in 0..n-1 : pt(i) -> pt(i + 2^s - 2*(2^s)*((i div 2^s) mod 2));
}
exphase twiddle cost 1;
phases forall s in 0..k-1 : (stage(s); twiddle);
`

func TestPhaseFamilyExpansion(t *testing.T) {
	prog, err := Parse(familySrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(map[string]int{"k": 3}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Graph.Comm) != 3 {
		t.Fatalf("family expanded to %d phases, want 3", len(c.Graph.Comm))
	}
	for s := 0; s < 3; s++ {
		name := "stage(" + string(rune('0'+s)) + ")"
		p := c.Graph.CommPhaseByName(name)
		if p == nil {
			t.Fatalf("missing phase %q", name)
		}
		img, ok := c.Graph.PhasePermutation(p)
		if !ok {
			t.Fatalf("%s not a permutation", name)
		}
		for x, to := range img {
			if to != x^(1<<uint(s)) {
				t.Errorf("%s(%d) = %d, want %d", name, x, to, x^(1<<uint(s)))
			}
		}
	}
	// Phase expression: stage(0); twiddle; stage(1); twiddle; stage(2); twiddle.
	steps, err := phase.Flatten(c.Phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 6 {
		t.Fatalf("schedule = %d steps, want 6", len(steps))
	}
	if steps[0].Phases[0].Name != "stage(0)" || steps[4].Phases[0].Name != "stage(2)" {
		t.Errorf("schedule order wrong: %v", steps)
	}
	if !steps[0].Phases[0].Comm || steps[1].Phases[0].Comm {
		t.Error("family instances must be comm refs")
	}
}

func TestPhaseFamilyErrors(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"bare-family-ref", "algorithm a(k); nodetype t 0..3; comphase f(s) in 0..k-1 { t(0) -> t(1); } phases f;"},
		{"index-on-scalar", "algorithm a; nodetype t 0..3; comphase c { t(0) -> t(1); } phases c(1);"},
		{"undefined-family", "algorithm a; nodetype t 0..3; exphase e; phases zz(1); e;"},
		{"family-param-shadow", "algorithm a(s); nodetype t 0..3; comphase f(s) in 0..2 { t(0) -> t(1); }"},
		{"loop-var-shadow", "algorithm a(s); nodetype t 0..3; exphase e; phases forall s in 0..2 : e;"},
		{"loop-var-undefined-bound", "algorithm a; nodetype t 0..3; exphase e; phases forall s in 0..zz : e;"},
	} {
		if _, err := Parse(tc.src); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Out-of-range family index at compile time.
	prog, err := Parse("algorithm a(k); nodetype t 0..3; comphase f(s) in 0..k-1 { t(0) -> t(1); } phases f(k);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Compile(map[string]int{"k": 2}, Limits{}); err == nil {
		t.Error("out-of-range family index accepted")
	}
	// Empty family range.
	prog, err = Parse("algorithm a(k); nodetype t 0..3; comphase f(s) in 0..k-1 { t(0) -> t(1); }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Compile(map[string]int{"k": 0}, Limits{}); err == nil {
		t.Error("empty family range accepted")
	}
}

func TestPhaseForallUsesLoopVarInCount(t *testing.T) {
	// Loop variable usable inside repetition counts of the body.
	prog, err := Parse(`
algorithm a;
nodetype t 0..3;
exphase e;
phases forall s in 1..3 : e^s;
`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := phase.Flatten(c.Phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1+2+3 {
		t.Errorf("steps = %d, want 6", len(steps))
	}
}

// TestCompileIterationLimit holds Compile to its iteration limit. A
// guard that is never true emits no edge, so before the limit a rule
// over 0..2^40 ran for hours under the edge limit; and a range ending at
// math.MaxInt never ended, because v++ wrapped before v > hi.
func TestCompileIterationLimit(t *testing.T) {
	const src = `
algorithm spin(lo, hi);
nodetype t 0..1;
comphase c {
    forall i in lo..hi if i < 0 : t(0) -> t(1);
}
phases forall k in lo..hi : c;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = prog.Compile(map[string]int{"lo": 0, "hi": 1 << 40}, Limits{MaxEdges: 1 << 10})
	if want := fmt.Sprintf("larcs: program exceeds iteration limit %d", 1<<24); err == nil || err.Error() != want {
		t.Errorf("spin over 0..2^40: err = %v, want %q", err, want)
	}
	t.Logf("the 0..2^40 rule stopped after %v", time.Since(start))

	// The comm rule and the phase-expression forall each step three
	// times and stop at math.MaxInt.
	c, err := prog.Compile(map[string]int{"lo": math.MaxInt - 2, "hi": math.MaxInt}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Graph.Comm[0].Edges); n != 0 {
		t.Errorf("guarded-out rule emitted %d edges", n)
	}
	if seq, ok := c.Phases.(phase.Seq); !ok || len(seq.Parts) != 3 {
		t.Errorf("phase forall over MaxInt-2..MaxInt grounded to %v, want 3 parts", c.Phases)
	}
}
