package larcs_test

import (
	"testing"

	"oregami/internal/larcs"
	"oregami/internal/workload"
)

// roundTrip asserts the printer contract on one source: if src parses,
// Format(prog) must reparse, and Format must be a fixed point of
// parse∘Format.
func roundTrip(t *testing.T, name, src string) {
	t.Helper()
	prog, err := larcs.ParseOnly(src)
	if err != nil {
		t.Fatalf("%s: seed source does not parse: %v", name, err)
	}
	printed := larcs.Format(prog)
	prog2, err := larcs.ParseOnly(printed)
	if err != nil {
		t.Fatalf("%s: printed form does not reparse: %v\nprinted:\n%s", name, err, printed)
	}
	printed2 := larcs.Format(prog2)
	if printed2 != printed {
		t.Fatalf("%s: Format is not a fixed point\nfirst:\n%s\nsecond:\n%s", name, printed, printed2)
	}
}

func TestFormatRoundTripsWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			roundTrip(t, w.Name, w.Source)
		})
	}
}

func TestFormatRoundTripsTrickyPrograms(t *testing.T) {
	cases := map[string]string{
		"forall-body-par": `
algorithm a(n);
nodetype cell 0..n-1;
comphase c { forall i in 0..n-1 : cell(i) -> cell((i+1) mod n); }
exphase e;
phases forall v in 0..2 : c || e;
`,
		"forall-body-seq-parens": `
algorithm a(n);
nodetype cell 0..n-1;
comphase c { forall i in 0..n-1 : cell(i) -> cell((i+1) mod n); }
exphase e;
phases forall v in 0..2 : (c; e);
`,
		"forall-then-seq-tail": `
algorithm a(n);
nodetype cell 0..n-1;
comphase c { forall i in 0..n-1 : cell(i) -> cell((i+1) mod n); }
exphase e;
phases forall v in 0..2 : c; e;
`,
		"forall-inside-par": `
algorithm a(n);
nodetype cell 0..n-1;
comphase st(s) in 0..2 { forall i in 0..n-1 : cell(i) -> cell((i+1) mod n); }
exphase e;
phases (forall s in 0..2 : st(s)) || e;
`,
		"rep-of-seq-and-nested-rep": `
algorithm a(n);
nodetype cell 0..n-1;
comphase c { forall i in 0..n-1 : cell(i) -> cell((i+1) mod n); }
exphase e;
phases (c; e)^2^3; eps; c^(n - 1) || e^n;
`,
		"guards-volumes-costs": `
algorithm a(n, s);
import w;
const half = (n + 1) / 2;
nodetype cell 0..n-1, 0..s-1;
comphase c {
  forall i in 0..n-1, j in 0..s-1 if i < n-1 : cell(i, j) -> cell(i+1, j) volume w * 2;
}
exphase e cost i + j + 1 at cell(i, j);
exphase f cost half;
phases c; e; f;
`,
		"nodesymmetric-ring": `
algorithm ring(n);
nodesymmetric;
nodetype cell 0..n-1;
comphase c { forall i in 0..n-1 : cell(i) -> cell((i+1) mod n); }
exphase e;
phases c; e;
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			roundTrip(t, name, src)
		})
	}
}

// TestFormatNestedUnaryReparses pins the "--" comment trap: a
// double-negated expression must not print as a comment opener.
func TestFormatNestedUnaryReparses(t *testing.T) {
	src := `
algorithm a;
const k = - -1;
nodetype cell 0..3;
comphase c { cell(0) -> cell(1); }
phases c;
`
	roundTrip(t, "nested-unary", src)
	prog, err := larcs.ParseOnly(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got := prog.Consts[0].Val.String()
	if got != "-(-1)" {
		t.Fatalf("nested unary printed %q, want %q", got, "-(-1)")
	}
}

// TestFormatPreservesSemantics compiles the original and the printed
// program with the same bindings and compares the expanded graphs.
func TestFormatPreservesSemantics(t *testing.T) {
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			orig, err := larcs.Parse(w.Source)
			if err != nil {
				t.Fatalf("parse %s: %v", w.Name, err)
			}
			reparsed, err := larcs.Parse(larcs.Format(orig))
			if err != nil {
				t.Fatalf("reparse %s: %v", w.Name, err)
			}
			c1, err := orig.Compile(w.Defaults, larcs.Limits{})
			if err != nil {
				t.Fatalf("compile original %s: %v", w.Name, err)
			}
			c2, err := reparsed.Compile(w.Defaults, larcs.Limits{})
			if err != nil {
				t.Fatalf("compile printed %s: %v", w.Name, err)
			}
			if c1.Graph.String() != c2.Graph.String() {
				t.Fatalf("%s: printed program expands differently\noriginal:\n%s\nprinted:\n%s",
					w.Name, c1.Graph.String(), c2.Graph.String())
			}
		})
	}
}

func TestCanonicalCollapsesLayout(t *testing.T) {
	a := `
-- a comment that must not affect the canonical form
algorithm demo(n);
nodetype node 0..n-1;
comphase ring { forall i in 0..n-1 : node(i) -> node((i+1) mod n); }
exphase work cost 1;
phases (ring; work)^n;
`
	b := "algorithm demo(n);\nnodetype node 0..n-1;\n" +
		"comphase ring {\n    forall i in 0..n-1 : node(i) -> node((i+1) mod n);\n}\n" +
		"exphase work cost 1;\nphases (ring; work)^n;\n"
	// mapd keys its cache on Format(Parse(src)): sources that differ
	// only in layout and comments must collapse to one text.
	canonical := func(src string) (string, error) {
		prog, err := larcs.Parse(src)
		if err != nil {
			return "", err
		}
		return larcs.Format(prog), nil
	}
	ca, err := canonical(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Errorf("canonical forms differ:\n--- a ---\n%s\n--- b ---\n%s", ca, cb)
	}
	// The canonical form is a fixed point of itself.
	cc, err := canonical(ca)
	if err != nil {
		t.Fatal(err)
	}
	if cc != ca {
		t.Errorf("canonical form not idempotent:\n%s\nvs\n%s", cc, ca)
	}
	if _, err := canonical("not larcs at all"); err == nil {
		t.Error("Parse accepted garbage")
	}
}
