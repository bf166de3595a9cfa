// Package group implements the permutation-group machinery behind the
// paper's group-theoretic contraction (Section 4.2.2): generating a group
// from the LaRCS communication functions, testing whether its Cayley
// graph is isomorphic to the task graph (regular action), enumerating
// subgroups, and forming quotient Cayley graphs that contract the task
// graph with perfectly balanced clusters.
//
// The algebra works on element indices. Under a regular action every
// element is fixed by its image of task 0, so Mul is two slice loads
// and no multiplication table is needed; other groups compose the two
// permutations and look the product up by an exact key.
package group

import (
	"context"
	"encoding/binary"
	"sort"

	"oregami/internal/perm"
)

// Group is a finite permutation group given by its full element list.
// Elements[0] is always the identity.
type Group struct {
	Degree     int
	Generators []perm.Perm
	Elements   []perm.Perm
	index      map[string]int // appendKey(element) -> element index
	inv        []int
	// elemOf[t] is the element mapping 0 to t. It is set only when G
	// acts regularly, where that element is unique.
	elemOf []int
}

// Generate computes the closure of the generators under composition using
// breadth-first multiplication. Following the paper's early-exit rule
// ("we can halt the computation as soon as the number of elements ...
// exceeds |X|"), generation aborts and returns ok=false as soon as the
// group grows beyond maxSize (pass 0 for no bound). The cost is
// O(|G| * |gens| * degree), i.e. O(|X|^2) per generator when |G| = |X|.
func Generate(gens []perm.Perm, maxSize int) (*Group, bool) {
	if len(gens) == 0 {
		return nil, false
	}
	n := len(gens[0])
	for _, g := range gens {
		if len(g) != n {
			panic("group: generators of mixed degree")
		}
	}
	g := &Group{Degree: n, Generators: gens, index: make(map[string]int)}
	id := perm.Identity(n)
	key := appendKey(nil, id)
	g.Elements = append(g.Elements, id)
	g.index[string(key)] = 0
	f := make(perm.Perm, n)
	// Elements doubles as the BFS queue: each new element is appended
	// once and expanded once, in discovery order.
	for head := 0; head < len(g.Elements); head++ {
		e := g.Elements[head]
		for _, gen := range gens {
			for i, v := range e {
				f[i] = gen[v] // e.Compose(gen)
			}
			key = appendKey(key[:0], f)
			if _, ok := g.index[string(key)]; ok {
				continue
			}
			if maxSize > 0 && len(g.Elements) >= maxSize {
				return nil, false
			}
			g.index[string(key)] = len(g.Elements)
			g.Elements = append(g.Elements, f)
			f = make(perm.Perm, n)
		}
	}
	g.elemOf = regularIndex(g.Elements, n)
	g.inv = make([]int, len(g.Elements))
	for i, e := range g.Elements {
		if g.elemOf != nil {
			// e^-1 maps 0 to the point e sends to 0.
			for x, v := range e {
				if v == 0 {
					g.inv[i] = g.elemOf[x]
					break
				}
			}
			continue
		}
		for x, v := range e {
			f[v] = x
		}
		key = appendKey(key[:0], f)
		g.inv[i] = g.index[string(key)]
	}
	return g, true
}

// regularIndex returns elemOf for a regular action, or nil. G of
// degree n acts regularly iff |G| = n and the images of 0 are distinct:
// then the orbit of 0 is everything and its stabilizer is trivial. This
// is the paper's test (every element has cycles of one length) without
// computing any cycles.
func regularIndex(elems []perm.Perm, n int) []int {
	if len(elems) != n {
		return nil
	}
	elemOf := make([]int, n)
	for t := range elemOf {
		elemOf[t] = -1
	}
	for i, e := range elems {
		if elemOf[e[0]] != -1 {
			return nil
		}
		elemOf[e[0]] = i
	}
	return elemOf
}

// appendKey appends an exact encoding of p to b: every image as a
// uvarint, which is prefix-free, so distinct permutations of one degree
// never share a key.
func appendKey(b []byte, p perm.Perm) []byte {
	for _, v := range p {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// Order returns |G|.
func (g *Group) Order() int { return len(g.Elements) }

// IndexOf returns the index of element p, or -1 if p is not in G.
func (g *Group) IndexOf(p perm.Perm) int {
	if i, ok := g.index[string(appendKey(nil, p))]; ok {
		return i
	}
	return -1
}

// Mul returns the index of Elements[i] * Elements[j] (left-to-right).
// Under a regular action the product is the element sending 0 to
// Elements[j][Elements[i][0]].
func (g *Group) Mul(i, j int) int {
	if g.elemOf != nil {
		return g.elemOf[g.Elements[j][g.Elements[i][0]]]
	}
	return g.index[string(appendKey(nil, g.Elements[i].Compose(g.Elements[j])))]
}

// Inv returns the index of Elements[i]^-1.
func (g *Group) Inv(i int) int { return g.inv[i] }

// ActsRegularly reports whether G acts regularly on {0..Degree-1}, the
// paper's criterion for the Cayley graph CG being isomorphic to the task
// graph T: |G| = |X| and every element has uniform cycle lengths
// (equivalently, |G| = |X| and the images of 0 are distinct).
func (g *Group) ActsRegularly() bool { return g.elemOf != nil }

// TaskOfElement maps element index i to the task it corresponds to under
// the regular-action bijection g <-> g(x) with x = 0 (the paper fixes x
// to the smallest member of X).
func (g *Group) TaskOfElement(i int) int { return g.Elements[i][0] }

// CyclicSubgroup returns the subgroup generated by element i, as a sorted
// list of element indices.
func (g *Group) CyclicSubgroup(i int) []int {
	sub := []int{0}
	for cur := i; cur != 0; cur = g.Mul(cur, i) {
		sub = append(sub, cur)
	}
	sort.Ints(sub)
	return sub
}

// subgroup is a node of the subgroup lattice walk: its elements, as a
// sorted list and as a bitset, and the elements it was generated from.
type subgroup struct {
	elems []int
	bits  bitset
	gens  []int
}

// closure is the scratch state of one subgroup-generation BFS.
type closure struct {
	in    []bool
	queue []int
}

// generate returns the elements of the subgroup generated by gens, in
// discovery order, or ok=false as soon as it has more than limit
// elements. Right-multiplying by the generators from the identity
// reaches every product of them, which in a finite group is the whole
// generated subgroup. The returned slice is scratch, valid until the
// next call.
func (c *closure) generate(g *Group, gens []int, limit int) (elems []int, ok bool) {
	for _, x := range c.queue {
		c.in[x] = false
	}
	c.queue = append(c.queue[:0], 0)
	c.in[0] = true
	for head := 0; head < len(c.queue); head++ {
		a := c.queue[head]
		for _, s := range gens {
			if x := g.Mul(a, s); !c.in[x] {
				if len(c.queue) == limit {
					return nil, false
				}
				c.in[x] = true
				c.queue = append(c.queue, x)
			}
		}
	}
	return c.queue, true
}

// Subgroups enumerates all subgroups of G of order exactly k (k must
// divide |G|; otherwise the result is empty). Enumeration walks the
// subgroup lattice by repeatedly extending known subgroups with one more
// generator, which is feasible for the small groups that arise from task
// graphs. Results are sorted element-index sets. The walk checks ctx
// before extending each subgroup and returns ctx's error once it is
// done; orders 1 and |G| are answered without walking.
func (g *Group) Subgroups(ctx context.Context, k int) ([][]int, error) {
	order := g.Order()
	if k < 1 || order%k != 0 {
		return nil, nil
	}
	if k == 1 {
		return [][]int{{0}}, nil
	}
	if k == order {
		all := make([]int, order)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}, nil
	}
	c := &closure{in: make([]bool, order)}
	trivial := subgroup{elems: []int{0}, bits: newBitset(order)}
	trivial.bits.set(0)
	seen := map[string]bool{string(trivial.bits): true}
	key := newBitset(order)
	tried := newBitset(order)
	var out [][]int
	for frontier := []subgroup{trivial}; len(frontier) > 0; {
		var next []subgroup
		for _, sub := range frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			copy(tried, sub.bits)
			gens := append(sub.gens[:len(sub.gens):len(sub.gens)], 0)
			for e := 1; e < order; e++ {
				if tried.has(e) {
					continue
				}
				// <H, e> = <H, he> = <H, eh> for every h in H, so the
				// rest of He and eH need no closure of their own.
				for _, h := range sub.elems {
					tried.set(g.Mul(h, e))
					tried.set(g.Mul(e, h))
				}
				gens[len(gens)-1] = e
				elems, ok := c.generate(g, gens, k)
				// A subgroup of order k contains only subgroups whose
				// order divides k (Lagrange), and every intermediate
				// closure on the way to it is one of them, so pruning
				// the rest keeps the enumeration complete.
				if !ok || k%len(elems) != 0 {
					continue
				}
				clear(key)
				for _, x := range elems {
					key.set(x)
				}
				if seen[string(key)] {
					continue
				}
				ext := subgroup{elems: key.members(), bits: append(bitset(nil), key...), gens: append([]int(nil), gens...)}
				seen[string(ext.bits)] = true
				if len(ext.elems) == k {
					out = append(out, ext.elems)
				} else {
					next = append(next, ext)
				}
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return lessIntSlice(out[i], out[j]) })
	return out, nil
}

// IsNormal reports whether the subgroup (given as element indices) is
// normal in G: g^-1 h g in H for all g in G, h in H.
func (g *Group) IsNormal(sub []int) bool {
	in := make([]bool, g.Order())
	for _, h := range sub {
		in[h] = true
	}
	for e := 0; e < g.Order(); e++ {
		inv := g.Inv(e)
		for _, h := range sub {
			if !in[g.Mul(g.Mul(inv, h), e)] {
				return false
			}
		}
	}
	return true
}

// RightCosets partitions G into right cosets Hg of the subgroup, each a
// sorted element-index set, ordered by smallest member (so the coset H
// itself comes first).
func (g *Group) RightCosets(sub []int) [][]int {
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
func (g *Group) CosetIndexOfElements(sub []int) []int {
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
func (g *Group) QuotientEdges(sub []int, gen int) (edges []int, ok bool) {
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

// IsPrimePower reports whether m = p^e for a prime p and e >= 1, the
// Sylow-corollary condition the paper uses to guarantee that a perfectly
// balanced contraction to |A| clusters exists when |T|/|A| is a prime
// power.
func IsPrimePower(m int) bool {
	if m < 2 {
		return false
	}
	for p := 2; p*p <= m; p++ {
		if m%p == 0 {
			for m%p == 0 {
				m /= p
			}
			return m == 1
		}
	}
	return true // m itself prime
}

// bitset is a set of element indices, also usable as a map key via
// string(b).
type bitset []byte

func newBitset(n int) bitset { return make(bitset, (n+7)/8) }

func (b bitset) set(i int)      { b[i>>3] |= 1 << (i & 7) }
func (b bitset) has(i int) bool { return b[i>>3]&(1<<(i&7)) != 0 }

// members returns the set's elements in ascending order.
func (b bitset) members() []int {
	var out []int
	for i := 0; i < len(b)*8; i++ {
		if b.has(i) {
			out = append(out, i)
		}
	}
	return out
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
