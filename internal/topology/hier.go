package topology

// Hierarchical machines (ROADMAP item 2): modern clusters are trees of
// enclosures — racks holding sockets holding NUMA nodes holding PEs —
// where communication cost grows with the number of hierarchy
// boundaries a message crosses. Hierarchy models such a machine as a
// flat processor graph (so every existing algorithm — NN-Embed,
// MM-Route, METRICS, the fault masks — works unchanged): PEs within an
// innermost group are completely connected, and at every upper level
// the representative PE (lowest index) of each child group is linked to
// the representatives of its siblings. Crossing a level-l boundary
// therefore costs up to 2l-1 hops (climb the representative chain, one
// sibling link across, descend), which is the per-level distance cost
// the hierarchical mappers optimize against.

import (
	"fmt"
	"math/bits"
	"strings"
)

// hierMaxLevels bounds the hierarchy depth; hierMaxProcs bounds the
// total PE count (the all-pairs distance table would otherwise explode).
const (
	hierMaxLevels = 8
	hierMaxProcs  = 1 << 20
)

// Hierarchy builds a hierarchical machine from per-level fanouts given
// top-down: Hierarchy(r, s, u, p) is r racks x s sockets x u NUMA nodes
// x p PEs per NUMA node. At least two levels, each with fanout >= 2.
// Processor indices follow the hierarchy: the depth-d subtree containing
// PE v spans the contiguous range [v - v%size(d), v - v%size(d) + size(d)).
func Hierarchy(fanouts ...int) *Network {
	if len(fanouts) < 2 || len(fanouts) > hierMaxLevels {
		panic(fmt.Sprintf("topology: hier needs 2..%d levels, got %d", hierMaxLevels, len(fanouts)))
	}
	n := 1
	parts := make([]string, len(fanouts))
	for i, f := range fanouts {
		if f < 2 {
			panic(fmt.Sprintf("topology: hier level %d fanout %d out of range (every level needs fanout >= 2)", i+1, f))
		}
		if n > hierMaxProcs/f {
			panic(fmt.Sprintf("topology: hier with %v exceeds %d processors", fanouts, hierMaxProcs))
		}
		n *= f
		parts[i] = fmt.Sprint(f)
	}
	nw := newNetwork("hier", fmt.Sprintf("hier(%s)", strings.Join(parts, "x")), n, fanouts...)
	// sizes[d] is the PE count of a depth-d subtree (d=0 is the whole
	// machine, d=len(fanouts) is a single PE).
	sizes := hierSizes(fanouts)
	for d := 0; d < len(fanouts); d++ {
		groupSize, childSize := sizes[d], sizes[d+1]
		for base := 0; base < n; base += groupSize {
			// Representatives of the fanouts[d] children of this group
			// form a complete graph: the machine's level-d interconnect.
			for a := base; a < base+groupSize; a += childSize {
				for b := a + childSize; b < base+groupSize; b += childSize {
					nw.addLink(a, b)
				}
			}
		}
	}
	nw.hier = newHierTables(fanouts, sizes, n)
	return nw.finish()
}

// hierTables answer the per-pair hierarchy queries without division.
// PE x has one mixed-radix child digit per depth d = 1..k (k levels):
// digit d = (x/sizes[d]) % fanouts[d-1], its position among the children
// of its depth-(d-1) group. code[x] packs those digits top level first,
// each in a field ceil(log2 fanout) bits wide — at most 20+8 = 28 bits
// at the 2^20-PE, 8-level cap — so the highest set bit of
// code[a]^code[b] lies in the field of the first depth at which a and b
// differ, and depth maps that bit length back to the depth. nz[x] has
// bit d set when digit d of x is non-zero, i.e. when x is not its
// depth-d group's representative. All three are immutable after
// construction and shared by degraded views.
type hierTables struct {
	code  []uint32
	nz    []uint16
	depth [33]uint8
}

func newHierTables(fanouts, sizes []int, n int) *hierTables {
	k := len(fanouts)
	t := &hierTables{code: make([]uint32, n), nz: make([]uint16, n)}
	// shift[d] is the low bit of digit d's field; the deepest digit sits
	// at bit 0.
	shift := make([]uint, k+1)
	for d := k; d >= 1; d-- {
		width := uint(bits.Len(uint(fanouts[d-1] - 1)))
		if d > 1 {
			shift[d-1] = shift[d] + width
		}
		for b := shift[d]; b < shift[d]+width; b++ {
			t.depth[b+1] = uint8(d)
		}
	}
	for x := 0; x < n; x++ {
		for d := 1; d <= k; d++ {
			digit := (x / sizes[d]) % fanouts[d-1]
			t.code[x] |= uint32(digit) << shift[d]
			if digit != 0 {
				t.nz[x] |= 1 << d
			}
		}
	}
	return t
}

// firstDiff returns the first depth (1..k) at which the child digits of
// distinct PEs a and b differ: they share their depth-(firstDiff-1)
// group but not their depth-firstDiff one.
func (t *hierTables) firstDiff(a, b int) int {
	return int(t.depth[bits.Len32(t.code[a]^t.code[b])])
}

// hierSizes returns subtree sizes per depth: sizes[d] is the number of
// PEs under one depth-d subtree, sizes[0] the whole machine, sizes[k]=1.
func hierSizes(fanouts []int) []int {
	sizes := make([]int, len(fanouts)+1)
	sizes[len(fanouts)] = 1
	for d := len(fanouts) - 1; d >= 0; d-- {
		sizes[d] = sizes[d+1] * fanouts[d]
	}
	return sizes
}

// HierLevels returns the per-level fanouts of a hierarchical network
// (top-down, a copy of Shape), and nil for every other family.
func (nw *Network) HierLevels() []int {
	if nw.Kind != "hier" {
		return nil
	}
	return nw.Shape()
}

// HierCrossLevel returns, for a hierarchical network, the number of
// hierarchy boundaries separating processors a and b: 0 when a == b,
// 1 when they share an innermost group, up to len(fanouts) when they
// sit in different top-level groups. Mappers use it as the per-level
// cost model; Distance realizes it as 1..2l-1 hops through the
// representative chain.
func (nw *Network) HierCrossLevel(a, b int) int {
	if nw.Kind != "hier" {
		panic("topology: HierCrossLevel on " + nw.Kind)
	}
	if a == b {
		return 0
	}
	return len(nw.Dims) - nw.hier.firstDiff(a, b) + 1
}

// hierDistance answers Distance analytically for the pristine
// hierarchical machine: climb each endpoint's representative chain up
// to the children of the deepest common subtree (one hop per level
// below the first differing depth at which the endpoint is not already
// its group's representative), plus the one sibling link between those
// two representatives. With the per-PE tables that is two popcounts;
// the hier differential tests check it against plain BFS over the link
// graph and against the division-based formula.
func (nw *Network) hierDistance(a, b int) int {
	if a == b {
		return 0
	}
	t := nw.hier
	below := ^uint16(0) << (t.firstDiff(a, b) + 1)
	return 1 + bits.OnesCount16(t.nz[a]&below) + bits.OnesCount16(t.nz[b]&below)
}
