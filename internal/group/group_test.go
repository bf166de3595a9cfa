package group

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"oregami/internal/perm"
)

// broadcastGenerators returns the generators of the paper's 8-node
// perfect broadcast example (Fig 4).
func broadcastGenerators(t *testing.T) []perm.Perm {
	t.Helper()
	comm1, err := perm.ParseCycles("(01234567)", 8)
	if err != nil {
		t.Fatal(err)
	}
	comm2, err := perm.ParseCycles("(0246)(1357)", 8)
	if err != nil {
		t.Fatal(err)
	}
	comm3, err := perm.ParseCycles("(04)(15)(26)(37)", 8)
	if err != nil {
		t.Fatal(err)
	}
	return []perm.Perm{comm1, comm2, comm3}
}

// subgroups is Subgroups without a deadline.
func subgroups(t testing.TB, g *Group, k int) [][]int {
	t.Helper()
	subs, err := g.Subgroups(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func TestGenerateBroadcastGroup(t *testing.T) {
	g, ok := Generate(broadcastGenerators(t), 8)
	if !ok {
		t.Fatal("generation aborted")
	}
	if g.Order() != 8 {
		t.Fatalf("|G| = %d, want 8", g.Order())
	}
	if !g.ActsRegularly() {
		t.Fatal("broadcast group should act regularly")
	}
	// The paper's element list E0..E7: Ei is rotation by i, i.e.
	// Ei(x) = (x+i) mod 8. Verify all are present.
	for i := 0; i < 8; i++ {
		img := make([]int, 8)
		for x := range img {
			img[x] = (x + i) % 8
		}
		p, _ := perm.FromImage(img)
		if g.IndexOf(p) == -1 {
			t.Errorf("rotation by %d missing from group", i)
		}
	}
}

func TestGenerateCutoff(t *testing.T) {
	// S3 on 3 points has 6 elements; cutoff 3 must abort.
	a, _ := perm.ParseCycles("(01)", 3)
	b, _ := perm.ParseCycles("(012)", 3)
	if _, ok := Generate([]perm.Perm{a, b}, 3); ok {
		t.Error("generation should abort beyond cutoff")
	}
	g, ok := Generate([]perm.Perm{a, b}, 6)
	if !ok || g.Order() != 6 {
		t.Errorf("S3 order = %v ok=%v", g, ok)
	}
	if g.ActsRegularly() {
		t.Error("S3 on 3 points does not act regularly (|G| != |X|)")
	}
}

func TestMulInvConsistency(t *testing.T) {
	g, _ := Generate(broadcastGenerators(t), 8)
	for i := 0; i < g.Order(); i++ {
		if g.Mul(i, g.Inv(i)) != 0 {
			t.Errorf("e%d * e%d^-1 != id", i, i)
		}
		if g.Mul(0, i) != i || g.Mul(i, 0) != i {
			t.Errorf("identity not neutral for %d", i)
		}
	}
}

func TestTaskElementBijection(t *testing.T) {
	g, _ := Generate(broadcastGenerators(t), 8)
	seen := make([]bool, 8)
	for e := 0; e < g.Order(); e++ {
		tsk := g.TaskOfElement(e)
		if tsk < 0 || tsk >= 8 || seen[tsk] {
			t.Fatalf("bijection broken at element %d (task %d)", e, tsk)
		}
		seen[tsk] = true
	}
	if g.Order() != 8 {
		t.Errorf("order %d, want one element per task", g.Order())
	}
}

func TestCyclicSubgroupFromComm3(t *testing.T) {
	g, _ := Generate(broadcastGenerators(t), 8)
	comm3, _ := perm.ParseCycles("(04)(15)(26)(37)", 8)
	i := g.IndexOf(comm3)
	if i == -1 {
		t.Fatal("comm3 not in group")
	}
	sub := g.CyclicSubgroup(i)
	if len(sub) != 2 {
		t.Fatalf("subgroup from comm3 has %d elements, want 2 ({E0,E4})", len(sub))
	}
	// Its non-identity member is rotation by 4.
	rot4 := make([]int, 8)
	for x := range rot4 {
		rot4[x] = (x + 4) % 8
	}
	p, _ := perm.FromImage(rot4)
	if sub[1] != g.IndexOf(p) {
		t.Errorf("subgroup = %v, want {identity, rotation-by-4}", sub)
	}
}

func TestSubgroupsOfZ8(t *testing.T) {
	g, _ := Generate(broadcastGenerators(t), 8)
	// Z8 has exactly one subgroup of each order 1, 2, 4, 8.
	for _, tc := range []struct{ k, count int }{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {3, 0}} {
		subs := subgroups(t, g, tc.k)
		if len(subs) != tc.count {
			t.Errorf("Z8 subgroups of order %d: %d, want %d", tc.k, len(subs), tc.count)
		}
		for _, s := range subs {
			if !g.IsNormal(s) {
				t.Errorf("subgroup %v of abelian group not normal", s)
			}
		}
	}
}

func TestSubgroupsOfS3(t *testing.T) {
	a, _ := perm.ParseCycles("(01)", 3)
	b, _ := perm.ParseCycles("(012)", 3)
	g, _ := Generate([]perm.Perm{a, b}, 0)
	// S3: three subgroups of order 2 (not normal), one of order 3 (normal).
	subs2 := subgroups(t, g, 2)
	if len(subs2) != 3 {
		t.Errorf("S3 subgroups of order 2: %d, want 3", len(subs2))
	}
	for _, s := range subs2 {
		if g.IsNormal(s) {
			t.Errorf("order-2 subgroup %v of S3 should not be normal", s)
		}
	}
	subs3 := subgroups(t, g, 3)
	if len(subs3) != 1 {
		t.Fatalf("S3 subgroups of order 3: %d, want 1", len(subs3))
	}
	if !g.IsNormal(subs3[0]) {
		t.Error("A3 should be normal in S3")
	}
}

func TestRightCosetsPartition(t *testing.T) {
	g, _ := Generate(broadcastGenerators(t), 8)
	sub := subgroups(t, g, 2)[0]
	cosets := g.RightCosets(sub)
	if len(cosets) != 4 {
		t.Fatalf("got %d cosets, want 4", len(cosets))
	}
	seen := make(map[int]bool)
	for _, c := range cosets {
		if len(c) != 2 {
			t.Errorf("coset size %d, want 2", len(c))
		}
		for _, e := range c {
			if seen[e] {
				t.Errorf("element %d in two cosets", e)
			}
			seen[e] = true
		}
	}
	if len(seen) != 8 {
		t.Errorf("cosets cover %d elements, want 8", len(seen))
	}
	idx := g.CosetIndexOfElements(sub)
	for ci, c := range cosets {
		for _, e := range c {
			if idx[e] != ci {
				t.Errorf("CosetIndexOfElements mismatch at %d", e)
			}
		}
	}
}

func TestQuotientEdgesNormal(t *testing.T) {
	g, _ := Generate(broadcastGenerators(t), 8)
	sub := subgroups(t, g, 2)[0] // {E0, E4}
	comm1, _ := perm.ParseCycles("(01234567)", 8)
	gen := g.IndexOf(comm1)
	edges, ok := g.QuotientEdges(sub, gen)
	if !ok {
		t.Fatal("quotient by normal subgroup failed")
	}
	// Quotient of Z8 by {0,4} is Z4; the +1 generator should give a
	// 4-cycle over the cosets.
	seen := map[int]bool{}
	at := 0
	for i := 0; i < 4; i++ {
		if seen[at] {
			t.Fatalf("quotient edges not a 4-cycle: %v", edges)
		}
		seen[at] = true
		at = edges[at]
	}
	if at != 0 {
		t.Errorf("quotient cycle does not close: %v", edges)
	}
	// comm3 itself collapses to a self-loop in the quotient (it is in H).
	comm3, _ := perm.ParseCycles("(04)(15)(26)(37)", 8)
	loops, ok := g.QuotientEdges(sub, g.IndexOf(comm3))
	if !ok {
		t.Fatal("comm3 quotient failed")
	}
	for c, to := range loops {
		if to != c {
			t.Errorf("comm3 should internalize: coset %d -> %d", c, to)
		}
	}
}

func TestIsPrimePower(t *testing.T) {
	for _, tc := range []struct {
		m    int
		want bool
	}{{1, false}, {2, true}, {3, true}, {4, true}, {6, false}, {8, true}, {9, true}, {12, false}, {16, true}, {27, true}, {36, false}, {49, true}} {
		if got := IsPrimePower(tc.m); got != tc.want {
			t.Errorf("IsPrimePower(%d) = %v, want %v", tc.m, got, tc.want)
		}
	}
}

// Lagrange property: every enumerated subgroup's order divides |G|, is
// closed, and contains the identity.
func TestSubgroupClosureProperty(t *testing.T) {
	a, _ := perm.ParseCycles("(01)(23)", 4)
	b, _ := perm.ParseCycles("(02)(13)", 4)
	g, _ := Generate([]perm.Perm{a, b}, 0) // Klein four-group
	if g.Order() != 4 {
		t.Fatalf("V4 order = %d", g.Order())
	}
	subs := subgroups(t, g, 2)
	if len(subs) != 3 {
		t.Fatalf("V4 has %d order-2 subgroups, want 3", len(subs))
	}
	for _, s := range subs {
		if s[0] != 0 {
			t.Errorf("subgroup %v missing identity", s)
		}
		for _, x := range s {
			for _, y := range s {
				if !slices.Contains(s, g.Mul(x, y)) {
					t.Errorf("subgroup %v not closed", s)
				}
			}
		}
	}
}

// Subgroups answers orders 1 and |G| without walking, and a walk under
// a cancelled context stops with the context's error.
func TestSubgroupsShortcutsAndCancellation(t *testing.T) {
	g, _ := Generate(broadcastGenerators(t), 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if subs, err := g.Subgroups(ctx, 1); err != nil || !reflect.DeepEqual(subs, [][]int{{0}}) {
		t.Errorf("Subgroups(1) = %v, %v; want [[0]]", subs, err)
	}
	if subs, err := g.Subgroups(ctx, 8); err != nil || !reflect.DeepEqual(subs, [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}) {
		t.Errorf("Subgroups(8) = %v, %v; want every element", subs, err)
	}
	if subs, err := g.Subgroups(ctx, 4); !errors.Is(err, context.Canceled) || subs != nil {
		t.Errorf("Subgroups(4) under a cancelled context = %v, %v; want context.Canceled", subs, err)
	}
}
