package contract_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"oregami/internal/contract"
	"oregami/internal/graph"
	"oregami/internal/workload"
)

var updateSweep = flag.Bool("update-group-sweep", false, "rewrite testdata/group_sweep.golden")

// sweepMaxTasks bounds the corpus sweep: every program with at most
// this many tasks is contracted into every divisor cluster count.
const sweepMaxTasks = 64

// sweepParam names the binding each corpus workload is swept over
// (the others keep their defaults); workloads without one run once.
var sweepParam = map[string]string{
	"nbody": "n", "jacobi": "n", "sor": "n", "matmul": "n", "fftn": "k",
	"binomial": "k", "annealing": "n", "systolicmm": "n", "fir": "n",
	"topsort": "n", "voting": "n",
}

// sweepSkip lists the sweep cases missing from the golden file: the
// string-keyed group that recorded it did not finish any of them within
// 150 s, because Z2^6 has about 2,800 subgroups and each lattice step
// formatted permutations with fmt. The new group contracts each in
// under 50 ms; TestGroupMatchesReferee walks Z2^4's lattice instead.
var sweepSkip = map[string]bool{
	"fftn k=6 c=1": true, "fftn k=6 c=2": true, "fftn k=6 c=4": true, "fftn k=6 c=8": true,
}

type sweepCase struct {
	name     string
	g        *graph.TaskGraph
	clusters int
}

// groupSweep compiles every corpus workload at every value 1..64 of its
// swept binding that yields at most sweepMaxTasks tasks, and pairs each
// program with every cluster count that divides its task count.
func groupSweep(t *testing.T) []sweepCase {
	t.Helper()
	var cases []sweepCase
	add := func(label string, g *graph.TaskGraph) {
		for c := 1; c <= g.NumTasks; c++ {
			name := fmt.Sprintf("%s c=%d", label, c)
			if g.NumTasks%c == 0 && !sweepSkip[name] {
				cases = append(cases, sweepCase{name, g, c})
			}
		}
	}
	for _, w := range workload.All() {
		param, ok := sweepParam[w.Name]
		if !ok {
			c, err := w.Compile(nil)
			if err != nil {
				t.Fatal(err)
			}
			add(w.Name, c.Graph)
			continue
		}
		for v := 1; v <= sweepMaxTasks; v++ {
			c, err := w.Compile(map[string]int{param: v})
			if err != nil || c.Graph.NumTasks == 0 {
				continue
			}
			if c.Graph.NumTasks > sweepMaxTasks {
				break // task counts grow with the swept binding
			}
			add(fmt.Sprintf("%s %s=%d", w.Name, param, v), c.Graph)
		}
	}
	return cases
}

// renderGroupContract prints everything GroupContract returns: the
// partition, every GroupInfo field the pipeline reads, or the error.
func renderGroupContract(part []int, info *contract.GroupInfo, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	names := make([]string, 0, len(info.InternalizedPerCluster))
	for name := range info.InternalizedPerCluster {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "|G|=%d sub=%v normal=%v gen=%q sylow=%v part=%v internal=",
		info.Group.Order(), info.Subgroup, info.Normal, info.FromGenerator, info.SylowGuaranteed, part)
	for _, name := range names {
		fmt.Fprintf(&b, "%s:%d,", name, info.InternalizedPerCluster[name])
	}
	return b.String()
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// TestGroupContractCorpusSweepGolden pins GroupContract's output on the
// whole corpus sweep — partitions, subgroups, normality, the generating
// phase, internalization counts and error text — to a golden file
// recorded with the string-keyed permutation-group implementation that
// preceded the index-based one. Regenerate with -update-group-sweep only
// for a deliberate change of contraction output.
func TestGroupContractCorpusSweepGolden(t *testing.T) {
	cases := groupSweep(t)
	var b strings.Builder
	contracted := 0
	for _, c := range cases {
		part, info, err := contract.GroupContract(context.Background(), c.g, c.clusters)
		if err == nil {
			contracted++
		}
		fmt.Fprintf(&b, "%s\t%s\n", c.name, digest(renderGroupContract(part, info, err)))
	}
	path := filepath.Join("testdata", "group_sweep.golden")
	if *updateSweep {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d cases, %d contracted", path, len(cases), contracted)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("sweep has %d cases, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			c := cases[i]
			part, info, err := contract.GroupContract(context.Background(), c.g, c.clusters)
			t.Errorf("golden line %d: got %q, want %q\n  output: %s", i+1, gotLines[i], wantLines[i], renderGroupContract(part, info, err))
		}
	}
	if contracted == 0 {
		t.Fatal("sweep contracted nothing")
	}
}
