package contract

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"oregami/internal/workload"
)

func TestKLRefineNeverWorse(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 10 + r.Intn(20)
		g := workload.RandomTaskGraph(n, 0.3, 15, int64(trial+900))
		procs := 3 + r.Intn(3)
		part := Random(g, procs, int64(trial))
		before := g.EdgeCut(part)
		maxSize := 0
		sizes := map[int]int{}
		for _, c := range part {
			sizes[c]++
		}
		for _, s := range sizes {
			if s > maxSize {
				maxSize = s
			}
		}
		refined, moves, err := KLRefine(context.Background(), g, part, maxSize, 10)
		if err != nil {
			t.Fatal(err)
		}
		after := g.EdgeCut(refined)
		if after > before {
			t.Fatalf("trial %d: KL increased cut %g -> %g", trial, before, after)
		}
		if moves > 0 && after == before {
			t.Fatalf("trial %d: %d moves reported with no improvement", trial, moves)
		}
		// Size bound respected; clusters stay non-empty.
		newSizes := map[int]int{}
		for _, c := range refined {
			newSizes[c]++
		}
		if len(newSizes) != len(sizes) {
			t.Fatalf("trial %d: cluster count changed %d -> %d", trial, len(sizes), len(newSizes))
		}
		for c, s := range newSizes {
			if s > maxSize {
				t.Fatalf("trial %d: cluster %d grew to %d > %d", trial, c, s, maxSize)
			}
		}
	}
}

func TestKLRefineImprovesRandomSubstantially(t *testing.T) {
	// On community-structured graphs KL should recover most of the gap
	// between a random partition and MWM-Contract.
	g := workload.Fig5Graph()
	part := Random(g, 3, 7)
	before := g.EdgeCut(part)
	refined, moves, err := KLRefine(context.Background(), g, append([]int(nil), part...), 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	after := g.EdgeCut(refined)
	// Greedy local search can stall at a local optimum, but on this
	// community-structured instance it must recover a meaningful
	// fraction of the random partition's excess cut.
	if moves == 0 || after > 0.8*before {
		t.Errorf("KL left cut at %g after %d moves (random start %g)", after, moves, before)
	}
}

func TestKLRefineOnOptimumIsNoOp(t *testing.T) {
	g := workload.Fig5Graph()
	part, err := MWMContract(g, Options{Processors: 3, MaxTasksPerProc: 4})
	if err != nil {
		t.Fatal(err)
	}
	refined, moves, err := KLRefine(context.Background(), g, append([]int(nil), part...), 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Errorf("KL found %d moves on the optimal partition", moves)
	}
	if g.EdgeCut(refined) != 6 {
		t.Errorf("cut changed to %g", g.EdgeCut(refined))
	}
}

// TestKLRefineStopsOnDoneContext: a done context stops the refinement
// at its next row check, leaving the partition as it was.
func TestKLRefineStopsOnDoneContext(t *testing.T) {
	g := workload.RandomTaskGraph(64, 0.3, 20, 13)
	part := Random(g, 8, 5)
	orig := append([]int(nil), part...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	refined, moves, err := KLRefine(ctx, g, part, 8, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if moves != 0 || !slices.Equal(refined, orig) {
		t.Errorf("a done context still moved %d tasks", moves)
	}
}
