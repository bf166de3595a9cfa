package group

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oregami/internal/gen"
	"oregami/internal/perm"
)

// Property: generated groups satisfy the group axioms on their
// multiplication table — closure, identity, inverses, associativity
// (spot-checked).
func TestGroupAxiomsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		// Two random generators; cutoff keeps the group small enough.
		g1 := perm.Perm(r.Perm(n))
		g2 := perm.Perm(r.Perm(n))
		g, ok := Generate([]perm.Perm{g1, g2}, 200)
		if !ok {
			return true // group too large for the cutoff; nothing to check
		}
		order := g.Order()
		// Identity and inverses.
		for i := 0; i < order; i++ {
			if g.Mul(0, i) != i || g.Mul(i, 0) != i {
				return false
			}
			if g.Mul(i, g.Inv(i)) != 0 {
				return false
			}
		}
		// Closure + associativity spot checks.
		for trial := 0; trial < 20; trial++ {
			a, b, c := r.Intn(order), r.Intn(order), r.Intn(order)
			ab := g.Mul(a, b)
			if ab < 0 || ab >= order {
				return false
			}
			if g.Mul(ab, c) != g.Mul(a, g.Mul(b, c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: right cosets of any enumerated subgroup partition the group
// into equal-size classes (Lagrange).
func TestLagrangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		g1 := perm.Perm(r.Perm(n))
		g2 := perm.Perm(r.Perm(n))
		g, ok := Generate([]perm.Perm{g1, g2}, 24)
		if !ok {
			return true
		}
		order := g.Order()
		for k := 1; k <= order && k <= 6; k++ {
			if order%k != 0 {
				if len(subgroups(t, g, k)) != 0 {
					return false
				}
				continue
			}
			for _, sub := range subgroups(t, g, k) {
				cosets := g.RightCosets(sub)
				if len(cosets) != order/k {
					return false
				}
				total := 0
				for _, c := range cosets {
					if len(c) != k {
						return false
					}
					total += len(c)
				}
				if total != order {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// cayleyGroup builds the permutation group of a generated Cayley task
// graph from its communication-phase bijections.
func cayleyGroup(t *testing.T, r *rand.Rand) (*Group, int) {
	t.Helper()
	g := gen.Cayley(r, 8)
	var gens []perm.Perm
	for _, p := range g.Comm {
		img, ok := g.PhasePermutation(p)
		if !ok {
			t.Fatalf("Cayley phase %q is not a bijection", p.Name)
		}
		pm, err := perm.FromImage(img)
		if err != nil {
			t.Fatalf("phase %q image: %v", p.Name, err)
		}
		gens = append(gens, pm)
	}
	grp, ok := Generate(gens, g.NumTasks)
	if !ok {
		t.Fatalf("group of cayley-z%d exceeded the |X| bound", g.NumTasks)
	}
	return grp, g.NumTasks
}

// Property (gen-driven): the group of a generated Cayley graph acts
// regularly — its order equals the task count and element<->task
// translation is a bijection.
func TestCayleyGroupActsRegularlyOnGenerated(t *testing.T) {
	gen.ForEachSeed(t, 40, func(t *testing.T, seed int64, r *rand.Rand) {
		grp, n := cayleyGroup(t, r)
		if grp.Order() != n {
			t.Fatalf("group order %d, want %d", grp.Order(), n)
		}
		if !grp.ActsRegularly() {
			t.Fatalf("group of order %d does not act regularly on %d tasks", grp.Order(), n)
		}
		seen := make([]bool, n)
		for i := 0; i < grp.Order(); i++ {
			task := grp.TaskOfElement(i)
			if task < 0 || task >= n || seen[task] {
				t.Fatalf("element %d maps to task %d, outside 0..%d or shared with another element", i, task, n-1)
			}
			seen[task] = true
		}
	})
}

// Property (gen-driven): every enumerated subgroup's right cosets
// partition the group into equal-size classes, and CosetIndexOfElements
// agrees with RightCosets.
func TestCosetsPartitionGroupOnGenerated(t *testing.T) {
	gen.ForEachSeed(t, 40, func(t *testing.T, seed int64, r *rand.Rand) {
		grp, n := cayleyGroup(t, r)
		for k := 1; k <= n; k++ {
			if n%k != 0 {
				continue
			}
			for _, sub := range subgroups(t, grp, k) {
				if len(sub) != k {
					t.Fatalf("Subgroups(%d) returned subgroup of size %d: %v", k, len(sub), sub)
				}
				cosets := grp.RightCosets(sub)
				if len(cosets) != n/k {
					t.Fatalf("subgroup of order %d has %d cosets, want %d", k, len(cosets), n/k)
				}
				idx := grp.CosetIndexOfElements(sub)
				seen := make([]int, n) // element -> 1+coset it appeared in
				for ci, coset := range cosets {
					if len(coset) != k {
						t.Fatalf("coset %d has %d elements, want %d", ci, len(coset), k)
					}
					for _, e := range coset {
						if e < 0 || e >= n || seen[e] != 0 {
							t.Fatalf("element %d repeated or out of range across cosets", e)
						}
						seen[e] = ci + 1
						if idx[e] != ci {
							t.Fatalf("CosetIndexOfElements[%d]=%d, RightCosets says %d", e, idx[e], ci)
						}
					}
				}
				for e, s := range seen {
					if s == 0 {
						t.Fatalf("element %d not covered by any coset", e)
					}
				}
			}
		}
	})
}
