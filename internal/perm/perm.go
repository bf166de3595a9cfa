// Package perm implements permutations on {0..n-1} with the cycle
// notation and left-to-right composition convention used by the paper's
// group-theoretic contraction (Section 4.2.2, footnote 4: "(123) composed
// with (13)(2) gives (12)(3)").
package perm

import (
	"fmt"
	"sort"
	"strings"
)

// Perm is a permutation: p[i] is the image of i. Length fixes the ground
// set {0..len(p)-1}.
type Perm []int

// Identity returns the identity permutation on n points.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// FromImage validates that img is a bijection on {0..len-1} and returns
// it as a Perm.
func FromImage(img []int) (Perm, error) {
	seen := make([]bool, len(img))
	for i, v := range img {
		if v < 0 || v >= len(img) {
			return nil, fmt.Errorf("perm: image[%d] = %d out of range", i, v)
		}
		if seen[v] {
			return nil, fmt.Errorf("perm: value %d repeated", v)
		}
		seen[v] = true
	}
	return Perm(append([]int(nil), img...)), nil
}

// Compose returns p then q under left-to-right composition:
// (p*q)(i) = q(p(i)).
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic(fmt.Sprintf("perm: composing permutations of degree %d and %d", len(p), len(q)))
	}
	r := make(Perm, len(p))
	for i := range p {
		r[i] = q[p[i]]
	}
	return r
}

// Inverse returns p^-1.
func (p Perm) Inverse() Perm {
	r := make(Perm, len(p))
	for i, v := range p {
		r[v] = i
	}
	return r
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsIdentity reports whether p fixes every point.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}

// Cycles returns the cycle decomposition of p including fixed points,
// each cycle starting at its smallest element, cycles ordered by first
// element.
func (p Perm) Cycles() [][]int {
	seen := make([]bool, len(p))
	var cycles [][]int
	for i := range p {
		if seen[i] {
			continue
		}
		cyc := []int{i}
		seen[i] = true
		for j := p[i]; j != i; j = p[j] {
			cyc = append(cyc, j)
			seen[j] = true
		}
		cycles = append(cycles, cyc)
	}
	return cycles
}

// CycleLengths returns the multiset of cycle lengths, sorted ascending
// (the permutation's cycle type).
func (p Perm) CycleLengths() []int {
	var ls []int
	for _, c := range p.Cycles() {
		ls = append(ls, len(c))
	}
	sort.Ints(ls)
	return ls
}

// HasUniformCycles reports whether all cycles of p (including fixed
// points) have the same length — the condition the paper uses to test
// that the generated group acts regularly ("the cycles of g should all
// be of equal length").
func (p Perm) HasUniformCycles() bool {
	cycles := p.Cycles()
	if len(cycles) == 0 {
		return true
	}
	l := len(cycles[0])
	for _, c := range cycles[1:] {
		if len(c) != l {
			return false
		}
	}
	return true
}

// Order returns the multiplicative order of p (lcm of cycle lengths).
func (p Perm) Order() int {
	l := 1
	for _, c := range p.Cycles() {
		l = lcm(l, len(c))
	}
	return l
}

// Power returns p^k for k >= 0.
func (p Perm) Power(k int) Perm {
	r := Identity(len(p))
	base := append(Perm(nil), p...)
	for k > 0 {
		if k&1 == 1 {
			r = r.Compose(base)
		}
		base = base.Compose(base)
		k >>= 1
	}
	return r
}

// String renders cycle notation as in the paper, e.g. "(0246)(1357)".
// Fixed points are shown as singleton cycles only when the permutation is
// the identity, which prints as "(0)(1)...(n-1)"; otherwise they are
// elided except when all cycles are singletons.
func (p Perm) String() string {
	cycles := p.Cycles()
	var b strings.Builder
	nontrivial := 0
	for _, c := range cycles {
		if len(c) > 1 {
			nontrivial++
		}
	}
	for _, c := range cycles {
		if len(c) == 1 && nontrivial > 0 {
			continue
		}
		b.WriteByte('(')
		for i, v := range c {
			if i > 0 && anyMultiDigit(p) {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(')')
	}
	return b.String()
}

func anyMultiDigit(p Perm) bool { return len(p) > 10 }

// ParseCycles parses cycle notation like "(0 2 4 6)(1 3 5 7)" or
// "(0246)(1357)" (single-digit shorthand, valid when n <= 10) into a
// permutation on n points. Points not mentioned are fixed.
func ParseCycles(s string, n int) (Perm, error) {
	p := Identity(n)
	assigned := make([]bool, n)
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		if s[i] != '(' {
			return nil, fmt.Errorf("perm: expected '(' at %q", s[i:])
		}
		i++
		var cyc []int
		for i < len(s) && s[i] != ')' {
			if s[i] == ' ' || s[i] == ',' {
				i++
				continue
			}
			if s[i] < '0' || s[i] > '9' {
				return nil, fmt.Errorf("perm: unexpected character %q in cycle", s[i])
			}
			if n <= 10 {
				cyc = append(cyc, int(s[i]-'0'))
				i++
			} else {
				j := i
				for j < len(s) && s[j] >= '0' && s[j] <= '9' {
					j++
				}
				var v int
				fmt.Sscanf(s[i:j], "%d", &v)
				cyc = append(cyc, v)
				i = j
			}
		}
		if i >= len(s) {
			return nil, fmt.Errorf("perm: unterminated cycle in %q", s)
		}
		i++ // consume ')'
		for k, v := range cyc {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("perm: point %d out of range [0,%d)", v, n)
			}
			if assigned[v] {
				return nil, fmt.Errorf("perm: point %d appears twice", v)
			}
			assigned[v] = true
			p[v] = cyc[(k+1)%len(cyc)]
		}
	}
	if _, err := FromImage(p); err != nil {
		return nil, err
	}
	return p, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
