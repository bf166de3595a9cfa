package contract

import (
	"context"
	"fmt"

	"oregami/internal/graph"
	"oregami/internal/group"
	"oregami/internal/perm"
)

// GroupInfo reports what the group-theoretic contraction discovered.
type GroupInfo struct {
	// Group is the permutation group generated by the communication
	// functions.
	Group *group.Group
	// Subgroup is the chosen subgroup (element indices) whose cosets
	// form the clusters.
	Subgroup []int
	// Normal records whether the subgroup is normal in the group (when
	// it is, the contracted graph is itself a Cayley graph; when not,
	// the contraction is still valid — paper, end of Section 4.2.2).
	Normal bool
	// FromGenerator is the phase name whose communication function
	// generated the subgroup, or "" if the subgroup came from
	// lattice enumeration.
	FromGenerator string
	// SylowGuaranteed records that |T|/|A| was a prime power, in which
	// case the paper's Sylow corollary guarantees a perfectly balanced
	// contraction exists.
	SylowGuaranteed bool
	// InternalizedPerCluster[phase] is the number of messages of that
	// phase internalized in each cluster. For a normal subgroup the
	// count is uniform across clusters (the quotient is itself a Cayley
	// graph); for a non-normal subgroup — which the paper still accepts
	// as "a possible contraction" — the count may vary, recorded as -1.
	InternalizedPerCluster map[string]int
}

// GroupContract contracts a node-symmetric task graph onto the given
// number of clusters using the paper's Cayley-graph construction
// (Section 4.2.2):
//
//  1. Each communication phase must be a bijection; its permutation is a
//     generator of a group G.
//  2. G is generated with the paper's early-exit bound |X|; the Cayley
//     graph of G is isomorphic to the task graph iff G acts regularly
//     (|G| = |X| and all elements have uniform cycle type).
//  3. A subgroup H of order |X|/clusters is selected — preferring one
//     generated by a single communication function, then a normal one —
//     and its right cosets become the clusters.
//
// The returned partition has exactly `clusters` clusters of equal size.
// The subgroup lattice walk stops with ctx's error once ctx is done.
func GroupContract(ctx context.Context, g *graph.TaskGraph, clusters int) ([]int, *GroupInfo, error) {
	n := g.NumTasks
	if clusters < 1 || n%clusters != 0 {
		return nil, nil, fmt.Errorf("contract: %d tasks do not divide evenly into %d clusters", n, clusters)
	}
	if !g.IsNodeSymmetricCandidate() {
		return nil, nil, fmt.Errorf("contract: some communication phase is not a bijection on tasks")
	}
	gens := make([]perm.Perm, 0, len(g.Comm))
	for _, p := range g.Comm {
		img, ok := g.PhasePermutation(p)
		if !ok {
			return nil, nil, fmt.Errorf("contract: phase %q is not a bijection", p.Name)
		}
		pm, err := perm.FromImage(img)
		if err != nil {
			return nil, nil, fmt.Errorf("contract: phase %q: %v", p.Name, err)
		}
		gens = append(gens, pm)
	}
	grp, ok := group.Generate(gens, n)
	if !ok {
		return nil, nil, fmt.Errorf("contract: generated group exceeds %d elements; task graph is not a Cayley graph of its communication functions", n)
	}
	if !grp.ActsRegularly() {
		return nil, nil, fmt.Errorf("contract: group of order %d does not act regularly on %d tasks", grp.Order(), n)
	}

	target := n / clusters
	info := &GroupInfo{Group: grp, SylowGuaranteed: group.IsPrimePower(target)}

	// Preference 1: a subgroup generated by a single communication
	// function (the paper's "quotient group arising directly from a
	// generator with cycle-length l").
	for i, p := range g.Comm {
		sub := grp.CyclicSubgroup(grp.IndexOf(gens[i]))
		if len(sub) == target {
			info.Subgroup = sub
			info.FromGenerator = p.Name
			info.Normal = grp.IsNormal(sub)
			break
		}
	}
	// Preference 2: any subgroup of the right order, normal first.
	if info.Subgroup == nil {
		subs, err := grp.Subgroups(ctx, target)
		if err != nil {
			return nil, nil, fmt.Errorf("contract: subgroup lattice walk: %w", err)
		}
		if len(subs) == 0 {
			return nil, nil, fmt.Errorf("contract: group has no subgroup of order %d", target)
		}
		info.Subgroup = subs[0]
		for _, s := range subs {
			if grp.IsNormal(s) {
				info.Subgroup = s
				info.Normal = true
				break
			}
		}
	}

	// Cosets -> partition of tasks via the regular-action bijection.
	cosetOf := grp.CosetIndexOfElements(info.Subgroup)
	part := make([]int, n)
	for e := 0; e < grp.Order(); e++ {
		part[grp.TaskOfElement(e)] = cosetOf[e]
	}
	// Renumber clusters densely by smallest task (cosets are already
	// dense, but order them deterministically by first task).
	renumber(part)

	// Count internalized messages per cluster per phase. For normal
	// subgroups the Cayley structure makes this uniform, which we
	// verify; non-normal quotients may vary (recorded as -1).
	info.InternalizedPerCluster = make(map[string]int, len(g.Comm))
	counts := make([]int, clusters)
	for _, p := range g.Comm {
		clear(counts)
		for _, e := range p.Edges {
			if part[e.From] == part[e.To] {
				counts[part[e.From]]++
			}
		}
		uniform := counts[0]
		for c := 1; c < clusters; c++ {
			if counts[c] != uniform {
				uniform = -1
				break
			}
		}
		if uniform == -1 && info.Normal {
			return nil, nil, fmt.Errorf("contract: internalized count not uniform in phase %q despite normal subgroup", p.Name)
		}
		info.InternalizedPerCluster[p.Name] = uniform
	}
	return part, info, nil
}

// renumber rewrites cluster ids in [0, len(part)) in place as dense ids
// ordered by each cluster's smallest member.
func renumber(part []int) {
	id := make([]int, len(part))
	for c := range id {
		id[c] = -1
	}
	next := 0
	for t, c := range part {
		if id[c] == -1 {
			id[c] = next
			next++
		}
		part[t] = id[c]
	}
}
