package group

// The permutation group as it was before its algebra moved onto element
// indices, kept verbatim (renamed) as the referee for the index-based
// Group: every product is a composed permutation formatted by refKey and
// looked up in a string map.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"oregami/internal/perm"
	"oregami/internal/workload"
)

// refKey is the fmt-based permutation key the referee indexes elements by.
func refKey(p perm.Perm) string {
	var b strings.Builder
	for _, v := range p {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

type refGroup struct {
	Degree     int
	Generators []perm.Perm
	Elements   []perm.Perm
	index      map[string]int
}

// refGenerate computes the closure of the generators under composition using
// breadth-first multiplication. Following the paper's early-exit rule
// ("we can halt the computation as soon as the number of elements ...
// exceeds |X|"), generation aborts and returns ok=false as soon as the
// group grows beyond maxSize (pass 0 for no bound). The cost is
// O(|G| * |gens| * degree), i.e. O(|X|^2) per generator when |G| = |X|.
func refGenerate(gens []perm.Perm, maxSize int) (*refGroup, bool) {
	if len(gens) == 0 {
		return nil, false
	}
	n := len(gens[0])
	for _, g := range gens {
		if len(g) != n {
			panic("group: generators of mixed degree")
		}
	}
	g := &refGroup{Degree: n, Generators: gens, index: make(map[string]int)}
	id := perm.Identity(n)
	g.Elements = append(g.Elements, id)
	g.index[refKey(id)] = 0
	queue := []perm.Perm{id}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, gen := range gens {
			f := e.Compose(gen)
			k := refKey(f)
			if _, ok := g.index[k]; ok {
				continue
			}
			if maxSize > 0 && len(g.Elements) >= maxSize {
				return nil, false
			}
			g.index[k] = len(g.Elements)
			g.Elements = append(g.Elements, f)
			queue = append(queue, f)
		}
	}
	return g, true
}

// Order returns |G|.
func (g *refGroup) Order() int { return len(g.Elements) }

// IndexOf returns the index of element p, or -1 if p is not in G.
func (g *refGroup) IndexOf(p perm.Perm) int {
	if i, ok := g.index[refKey(p)]; ok {
		return i
	}
	return -1
}

// Mul returns the index of Elements[i] * Elements[j] (left-to-right).
func (g *refGroup) Mul(i, j int) int {
	k := g.index[refKey(g.Elements[i].Compose(g.Elements[j]))]
	return k
}

// Inv returns the index of Elements[i]^-1.
func (g *refGroup) Inv(i int) int {
	return g.index[refKey(g.Elements[i].Inverse())]
}

// ActsRegularly reports whether G acts regularly on {0..Degree-1}, the
// paper's criterion for the Cayley graph CG being isomorphic to the task
// graph T: |G| = |X| and every element has uniform cycle lengths.
func (g *refGroup) ActsRegularly() bool {
	if g.Order() != g.Degree {
		return false
	}
	for _, e := range g.Elements {
		if !e.HasUniformCycles() {
			return false
		}
	}
	return true
}

// TaskOfElement maps element index i to the task it corresponds to under
// the regular-action bijection g <-> g(x) with x = 0 (the paper fixes x
// to the smallest member of X).
func (g *refGroup) TaskOfElement(i int) int { return g.Elements[i][0] }

// CyclicSubgroup returns the subgroup generated by element i, as a sorted
// list of element indices.
func (g *refGroup) CyclicSubgroup(i int) []int {
	seen := map[int]bool{0: true}
	sub := []int{0}
	for cur := i; !seen[cur]; cur = g.Mul(cur, i) {
		seen[cur] = true
		sub = append(sub, cur)
	}
	sort.Ints(sub)
	return sub
}

// closure returns the subgroup generated by the given element indices.
func (g *refGroup) closure(seed []int) []int {
	seen := map[int]bool{0: true}
	queue := []int{0}
	add := func(x int) {
		if !seen[x] {
			seen[x] = true
			queue = append(queue, x)
		}
	}
	for _, s := range seed {
		add(s)
	}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for x := range seen {
			add(g.Mul(a, x))
			add(g.Mul(x, a))
		}
		add(g.Inv(a))
	}
	out := make([]int, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// Subgroups enumerates all subgroups of G of order exactly k (k must
// divide |G|; otherwise the result is empty). Enumeration walks the
// subgroup lattice by repeatedly extending known subgroups with one more
// generator, which is feasible for the small groups that arise from task
// graphs. Results are sorted element-index sets.
func (g *refGroup) Subgroups(k int) [][]int {
	if k < 1 || g.Order()%k != 0 {
		return nil
	}
	seen := map[string]bool{}
	var all [][]int
	var frontier [][]int
	trivial := []int{0}
	seen[refKeyOf(trivial)] = true
	all = append(all, trivial)
	frontier = append(frontier, trivial)
	for len(frontier) > 0 {
		var next [][]int
		for _, sub := range frontier {
			for e := 1; e < g.Order(); e++ {
				if refContains(sub, e) {
					continue
				}
				ext := g.closure(append(append([]int(nil), sub...), e))
				// Any subgroup of order k is generated entirely by its
				// own elements, and every intermediate closure on the way
				// is a subgroup of it, so pruning oversized closures
				// keeps the enumeration complete.
				if len(ext) > k {
					continue
				}
				ks := refKeyOf(ext)
				if !seen[ks] {
					seen[ks] = true
					all = append(all, ext)
					next = append(next, ext)
				}
			}
		}
		frontier = next
	}
	var out [][]int
	for _, sub := range all {
		if len(sub) == k {
			out = append(out, sub)
		}
	}
	sort.Slice(out, func(i, j int) bool { return refLessIntSlice(out[i], out[j]) })
	return out
}

// IsNormal reports whether the subgroup (given as element indices) is
// normal in G: g^-1 h g in H for all g in G, h in H.
func (g *refGroup) IsNormal(sub []int) bool {
	inSub := make(map[int]bool, len(sub))
	for _, h := range sub {
		inSub[h] = true
	}
	for e := 0; e < g.Order(); e++ {
		inv := g.Inv(e)
		for _, h := range sub {
			if !inSub[g.Mul(g.Mul(inv, h), e)] {
				return false
			}
		}
	}
	return true
}

// RightCosets partitions G into right cosets Hg of the subgroup, each a
// sorted element-index set, ordered by smallest member (so the coset H
// itself comes first).
func (g *refGroup) RightCosets(sub []int) [][]int {
	assigned := make([]int, g.Order())
	for i := range assigned {
		assigned[i] = -1
	}
	var cosets [][]int
	for e := 0; e < g.Order(); e++ {
		if assigned[e] != -1 {
			continue
		}
		var coset []int
		for _, h := range sub {
			x := g.Mul(h, e)
			assigned[x] = len(cosets)
			coset = append(coset, x)
		}
		sort.Ints(coset)
		cosets = append(cosets, coset)
	}
	return cosets
}

// CosetIndexOfElements returns, for each element index, the index of its
// right coset in RightCosets(sub) order.
func (g *refGroup) CosetIndexOfElements(sub []int) []int {
	cosets := g.RightCosets(sub)
	idx := make([]int, g.Order())
	for ci, coset := range cosets {
		for _, e := range coset {
			idx[e] = ci
		}
	}
	return idx
}

// QuotientEdges returns, for generator gen (an element index), the edge
// map of the quotient Cayley graph over the right cosets of sub:
// edges[c] = coset reached from coset c by right-multiplying by gen.
// When sub is normal this is the Cayley graph of G/H; when it is not, it
// is still a valid contraction structure (paper, end of Section 4.2.2),
// provided each coset maps onto a single coset — otherwise ok=false.
func (g *refGroup) QuotientEdges(sub []int, gen int) (edges []int, ok bool) {
	cosets := g.RightCosets(sub)
	cosetOf := g.CosetIndexOfElements(sub)
	edges = make([]int, len(cosets))
	for ci, coset := range cosets {
		target := -1
		for _, e := range coset {
			to := cosetOf[g.Mul(e, gen)]
			if target == -1 {
				target = to
			} else if to != target {
				return nil, false
			}
		}
		edges[ci] = target
	}
	return edges, true
}

func refKeyOf(s []int) string {
	b := make([]byte, 0, len(s)*3)
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

func refContains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func refLessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// circulant returns the regular representation of Z_n generated by the
// given steps: x -> x+s mod n.
func circulant(n int, steps ...int) []perm.Perm {
	var gens []perm.Perm
	for _, s := range steps {
		p := make(perm.Perm, n)
		for x := range p {
			p[x] = ((x+s)%n + n) % n
		}
		gens = append(gens, p)
	}
	return gens
}

// dihedral returns the right regular representation of D_m (order 2m)
// on 2m points, point f*m+i standing for r^i s^f: right multiplication
// by r sends r^i to r^(i+1) and r^i s to r^(i-1) s; by s it flips f.
func dihedral(m int) []perm.Perm {
	r, s := make(perm.Perm, 2*m), make(perm.Perm, 2*m)
	for i := 0; i < m; i++ {
		r[i] = (i + 1) % m
		r[m+i] = m + (i+m-1)%m
		s[i], s[m+i] = m+i, i
	}
	return []perm.Perm{r, s}
}

// product returns the regular representation of Z_a x Z_b on a*b
// points, point i*b+j standing for (i, j).
func product(a, b int) []perm.Perm {
	x, y := make(perm.Perm, a*b), make(perm.Perm, a*b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			x[i*b+j] = (i+1)%a*b + j
			y[i*b+j] = i*b + (j+1)%b
		}
	}
	return []perm.Perm{x, y}
}

// cycles parses each cycle string as a permutation on n points.
func cycles(t testing.TB, n int, cs ...string) []perm.Perm {
	t.Helper()
	var gens []perm.Perm
	for _, c := range cs {
		p, err := perm.ParseCycles(c, n)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, p)
	}
	return gens
}

// compareWithReferee generates both groups from gens and fails on the
// first difference in anything the contraction reads. Products,
// inverses and cosets are compared for every element; subgroup lattice
// walks only up to order walkCap, where the referee is still quick.
func compareWithReferee(t *testing.T, gens []perm.Perm, maxSize, walkCap int) {
	t.Helper()
	g, ok := Generate(gens, maxSize)
	ref, refOK := refGenerate(gens, maxSize)
	if ok != refOK {
		t.Fatalf("Generate ok = %v, referee %v", ok, refOK)
	}
	if !ok {
		return
	}
	if g.Order() != ref.Order() {
		t.Fatalf("order %d, referee %d", g.Order(), ref.Order())
	}
	order := g.Order()
	for i := range g.Elements {
		if !g.Elements[i].Equal(ref.Elements[i]) {
			t.Fatalf("element %d = %v, referee %v", i, g.Elements[i], ref.Elements[i])
		}
	}
	if got, want := g.ActsRegularly(), ref.ActsRegularly(); got != want {
		t.Fatalf("ActsRegularly = %v, referee %v", got, want)
	}
	for i := 0; i < order; i++ {
		if got, want := g.Inv(i), ref.Inv(i); got != want {
			t.Fatalf("Inv(%d) = %d, referee %d", i, got, want)
		}
		for j := 0; j < order; j++ {
			if got, want := g.Mul(i, j), ref.Mul(i, j); got != want {
				t.Fatalf("Mul(%d, %d) = %d, referee %d", i, j, got, want)
			}
		}
		if got, want := g.IndexOf(ref.Elements[i]), ref.IndexOf(ref.Elements[i]); got != want {
			t.Fatalf("IndexOf(element %d) = %d, referee %d", i, got, want)
		}
		if got, want := g.CyclicSubgroup(i), ref.CyclicSubgroup(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("CyclicSubgroup(%d) = %v, referee %v", i, got, want)
		}
	}
	for _, p := range append([]perm.Perm{perm.Identity(g.Degree + 1)}, transpositions(g.Degree)...) {
		if got, want := g.IndexOf(p), ref.IndexOf(p); got != want {
			t.Fatalf("IndexOf(%v) = %d, referee %d", p, got, want)
		}
	}
	var genIdx []int
	for _, p := range gens {
		genIdx = append(genIdx, ref.IndexOf(p))
	}
	var subs [][]int
	if order <= walkCap {
		for k := 1; k <= order; k++ {
			got, err := g.Subgroups(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Subgroups(k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Subgroups(%d) = %v, referee %v", k, got, want)
			}
			subs = append(subs, got...)
		}
	} else {
		seen := map[string]bool{}
		for i := 0; i < order; i++ {
			if sub := ref.CyclicSubgroup(i); !seen[fmt.Sprint(sub)] {
				seen[fmt.Sprint(sub)] = true
				subs = append(subs, sub)
			}
		}
	}
	for _, sub := range subs {
		if got, want := g.IsNormal(sub), ref.IsNormal(sub); got != want {
			t.Fatalf("IsNormal(%v) = %v, referee %v", sub, got, want)
		}
		if got, want := g.RightCosets(sub), ref.RightCosets(sub); !reflect.DeepEqual(got, want) {
			t.Fatalf("RightCosets(%v) = %v, referee %v", sub, got, want)
		}
		if got, want := g.CosetIndexOfElements(sub), ref.CosetIndexOfElements(sub); !reflect.DeepEqual(got, want) {
			t.Fatalf("CosetIndexOfElements(%v) = %v, referee %v", sub, got, want)
		}
		for _, gi := range genIdx {
			got, gotOK := g.QuotientEdges(sub, gi)
			want, wantOK := ref.QuotientEdges(sub, gi)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("QuotientEdges(%v, %d) = %v, %v; referee %v, %v", sub, gi, got, gotOK, want, wantOK)
			}
		}
	}
}

// transpositions returns (0 1) and (0 n-1) on n points: non-members
// for most groups, and probes of IndexOf's membership check.
func transpositions(n int) []perm.Perm {
	if n < 2 {
		return nil
	}
	a, b := perm.Identity(n), perm.Identity(n)
	a[0], a[1] = 1, 0
	b[0], b[n-1] = n-1, 0
	return []perm.Perm{a, b}
}

func TestGroupMatchesReferee(t *testing.T) {
	for _, tc := range []struct {
		name    string
		gens    []perm.Perm
		maxSize int
		walkCap int
	}{
		{"Z8 broadcast", broadcastGenerators(t), 8, 16},
		{"Z12", circulant(12, 1), 12, 16},
		{"Z30 chords", circulant(30, 1, 7), 30, 16},
		{"Z64", circulant(64, 1), 64, 16},
		{"Z60", circulant(60, 1, 7), 60, 16},
		{"D4", dihedral(4), 8, 16},
		{"D6", dihedral(6), 12, 16},
		{"D12", dihedral(12), 24, 16},
		{"D32", dihedral(32), 64, 16},
		{"D64", dihedral(64), 128, 16},
		{"Z2xZ2", product(2, 2), 4, 16},
		{"Z2xZ6", product(2, 6), 12, 16},
		{"Z4xZ4", product(4, 4), 16, 16},
		{"Z3xZ6", product(3, 6), 18, 18},
		{"Z3xZ9", product(3, 9), 27, 16},
		{"Z6xZ6", product(6, 6), 36, 16},
		{"Z4xZ16", product(4, 16), 64, 16},
		{"S3", cycles(t, 3, "(01)", "(012)"), 0, 16},
		{"S4", cycles(t, 4, "(01)", "(0123)"), 0, 16},
		{"V4 intransitive", cycles(t, 4, "(01)", "(23)"), 0, 16},
		{"S3 cutoff", cycles(t, 3, "(01)", "(012)"), 3, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && len(tc.gens[0]) > 64 {
				t.Skip("the referee is too slow under the race detector at this order; the non-race run covers it")
			}
			compareWithReferee(t, tc.gens, tc.maxSize, tc.walkCap)
		})
	}
	// Every node-symmetric corpus program at its default bindings, with
	// the generators and |X| bound GroupContract uses.
	for _, w := range workload.All() {
		c, err := w.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		g := c.Graph
		if !g.IsNodeSymmetricCandidate() {
			continue
		}
		var gens []perm.Perm
		for _, p := range g.Comm {
			img, ok := g.PhasePermutation(p)
			if !ok {
				t.Fatalf("%s: phase %q is not a bijection", w.Name, p.Name)
			}
			gens = append(gens, perm.Perm(img))
		}
		t.Run("corpus/"+w.Name, func(t *testing.T) {
			compareWithReferee(t, gens, g.NumTasks, 16)
		})
	}
}

// FuzzGroup decodes fuzzer bytes into generators and compares the
// group against the referee. data[0] picks the family: even bytes give
// circulant steps on up to 32 points under GroupContract's |X| bound,
// odd bytes two shuffled permutations of up to 7 points, bounded at
// 120 elements (or at the degree when data[2] is odd).
func FuzzGroup(f *testing.F) {
	f.Add([]byte{0, 7, 1})          // Z8
	f.Add([]byte{0, 14, 1, 7})      // Z15 with a chord
	f.Add([]byte{0, 11, 0})         // identity on 12 points: not regular
	f.Add([]byte{1, 2, 0, 1, 2, 3}) // permutations of 3 points
	f.Add([]byte{1, 3, 1, 9, 4, 7}) // 4 points, bounded at the degree
	f.Add([]byte{1, 6, 0, 250, 13, 77, 5, 160, 42, 3, 99, 18, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if data[0]%2 == 0 {
			n := 1 + int(data[1])%32
			var steps []int
			for _, b := range data[2:min(len(data), 5)] {
				steps = append(steps, int(b)%n)
			}
			compareWithReferee(t, circulant(n, steps...), n, 16)
			return
		}
		n := 1 + int(data[1])%7
		maxSize := 120
		if data[2]%2 == 1 {
			maxSize = n
		}
		rest := data[3:]
		next := func() int {
			if len(rest) == 0 {
				return 0
			}
			b := rest[0]
			rest = rest[1:]
			return int(b)
		}
		var gens []perm.Perm
		for k := 0; k < 2; k++ {
			p := perm.Identity(n)
			for i := n - 1; i > 0; i-- { // Fisher-Yates
				j := next() % (i + 1)
				p[i], p[j] = p[j], p[i]
			}
			gens = append(gens, p)
		}
		compareWithReferee(t, gens, maxSize, 24)
	})
}
