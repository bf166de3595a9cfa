package larcs

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestEvalDivideByZeroTyped verifies that "/" , "div", and "mod" with a
// zero divisor surface a typed *EvalError wrapping ErrDivideByZero, with
// the position of the failing operator — not a panic and not an opaque
// string-only error.
func TestEvalDivideByZeroTyped(t *testing.T) {
	for _, op := range []string{"/", "div", "mod"} {
		e := Binary{Op: op, L: Num{V: 7}, R: Var{Name: "z", Line: 3, Col: 9}, Line: 3, Col: 7}
		sc := scope{deepest: -1}
		sc.frame[sc.bind("z")] = 0
		_, err := sc.lower(e)(sc.frame)
		if err == nil {
			t.Fatalf("op %q: zero divisor accepted", op)
		}
		if !errors.Is(err, ErrDivideByZero) {
			t.Errorf("op %q: error %v does not wrap ErrDivideByZero", op, err)
		}
		var ee *EvalError
		if !errors.As(err, &ee) {
			t.Fatalf("op %q: error %T is not an *EvalError", op, err)
		}
		if ee.Line != 3 || ee.Col != 7 {
			t.Errorf("op %q: position = %d:%d, want 3:7", op, ee.Line, ee.Col)
		}
		if ee.Op != op && !(op == "/" && ee.Op == "/") {
			t.Errorf("op %q: recorded operator %q", op, ee.Op)
		}
	}
}

// TestCompileDivideByZeroTyped checks the typed error propagates through
// Compile, where a bound parameter makes a divisor zero.
func TestCompileDivideByZeroTyped(t *testing.T) {
	src := `
algorithm d(n);
nodetype t 0..9;
comphase c { forall i in 0..9 : t(i) -> t(i mod n); }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.Compile(map[string]int{"n": 0}, Limits{})
	if err == nil {
		t.Fatal("mod 0 accepted")
	}
	if !errors.Is(err, ErrDivideByZero) {
		t.Errorf("Compile error %v does not wrap ErrDivideByZero", err)
	}
	if !strings.Contains(err.Error(), "larcs:4:") {
		t.Errorf("error lacks source position: %v", err)
	}
	// Nonzero divisor still works.
	if _, err := prog.Compile(map[string]int{"n": 10}, Limits{}); err != nil {
		t.Errorf("mod 10 failed: %v", err)
	}
}

// TestAnalyzeAllAccumulates verifies the sema rewrite reports every
// defect of a broken program, not just the first.
func TestAnalyzeAllAccumulates(t *testing.T) {
	src := `
algorithm broken(n);
nodetype t 0..n-1;
comphase a { forall i in 0..n-1 : t(i) -> u(i); }
comphase b { forall i in 0..n-1 : t(i, i) -> t(q); }
phases a; b; ghost;
`
	prog, err := ParseOnly(src)
	if err != nil {
		t.Fatal(err)
	}
	errs := AnalyzeAll(prog)
	if len(errs) < 4 {
		t.Fatalf("AnalyzeAll found %d defect(s), want >= 4: %v", len(errs), errs)
	}
	var msgs []string
	for _, e := range errs {
		msgs = append(msgs, e.Error())
	}
	all := strings.Join(msgs, "\n")
	for _, want := range []string{
		`undeclared nodetype "u"`,
		`has 1 dimension(s), reference has 2`,
		`undefined identifier "q"`,
		`undeclared phase "ghost"`,
	} {
		if !strings.Contains(all, want) {
			t.Errorf("missing defect %q in:\n%s", want, all)
		}
	}
	// Analyze keeps the first-error contract.
	if err := Analyze(prog); err == nil || err.Error() != errs[0].Error() {
		t.Errorf("Analyze = %v, want first of AnalyzeAll (%v)", err, errs[0])
	}
}

// TestCompileHandBuiltProgram covers Programs built without Parse, which
// Analyze never saw: a name with no binding fails only where it is
// evaluated, with its position, and an undeclared nodetype is an error
// rather than a nil dereference.
func TestCompileHandBuiltProgram(t *testing.T) {
	ghost := Var{Name: "ghost", Line: 7, Col: 3}
	rule := func(hi Expr, to string) CommRule {
		return CommRule{
			Vars:   []string{"i"},
			Ranges: []RangeExpr{{Lo: Num{V: 0}, Hi: hi}},
			From:   NodeRef{Type: "t", Idx: []Expr{Var{Name: "i"}}},
			To:     NodeRef{Type: to, Idx: []Expr{ghost}},
		}
	}
	prog := func(r CommRule) *Program {
		return &Program{
			Name:       "hand",
			NodeTypes:  []NodeTypeDecl{{Name: "t", Dims: []RangeExpr{{Lo: Num{V: 0}, Hi: Num{V: 3}}}}},
			CommPhases: []CommPhaseDecl{{Name: "c", Rules: []CommRule{r}}},
		}
	}
	// An empty quantifier range never evaluates the unbound endpoint.
	c, err := prog(rule(Num{V: -1}, "t")).Compile(nil, Limits{})
	if err != nil {
		t.Fatalf("unevaluated unbound name failed: %v", err)
	}
	if n := c.Graph.NumEdges(); n != 0 {
		t.Errorf("%d edges from an empty range", n)
	}
	for _, tc := range []struct {
		rule CommRule
		want string
	}{
		{rule(Num{V: 3}, "t"), `larcs:7:3: unbound identifier "ghost" at evaluation time`},
		{CommRule{From: NodeRef{Type: "t", Idx: []Expr{Num{V: 0}}}, To: NodeRef{Type: "u", Idx: []Expr{Num{V: 1}}}},
			`larcs: undeclared nodetype "u"`},
	} {
		if _, err := prog(tc.rule).Compile(nil, Limits{}); err == nil || err.Error() != tc.want {
			t.Errorf("Compile error = %v, want %s", err, tc.want)
		}
	}
}

// TestCompileConcurrent compiles one program from several goroutines:
// lowering leaves no state on the Program, so every result is the same.
func TestCompileConcurrent(t *testing.T) {
	prog, err := Parse(`
algorithm g(n);
const m = n * 2;
nodetype cell 0..n-1, 0..m-1;
comphase f(s) in 0..2 { forall i in 0..n-2, j in 0..m-1 if (i + j + s) mod 2 == 0 : cell(i, j) -> cell(i+1, j) volume s + 1; }
exphase w cost i + j at cell(i, j);
phases forall s in 0..2 : (f(s); w);
`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Compile(map[string]int{"n": 9}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Compiled, 4)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], _ = prog.Compile(map[string]int{"n": 9}, Limits{})
		}(w)
	}
	wg.Wait()
	for w, got := range results {
		if got == nil || !reflect.DeepEqual(got.Graph, want.Graph) || !reflect.DeepEqual(got.Phases, want.Phases) {
			t.Errorf("goroutine %d compiled a different program", w)
		}
	}
}
