// Package check_test (external): the test maps a workload through
// internal/core, which itself imports internal/check, so an in-package
// test would be an import cycle.
package check_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/gen"
	"oregami/internal/larcs"
	"oregami/internal/mapping"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

func TestFingerprintHashStableAndSensitive(t *testing.T) {
	w, err := workload.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Hypercube(3)})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mapping
	h1 := check.FingerprintHash(m)
	h2 := check.FingerprintHash(m)
	if h1 != h2 {
		t.Fatalf("FingerprintHash not deterministic: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("FingerprintHash length = %d, want 64 hex chars", len(h1))
	}
	// Any mutation of the decided state must change the digest: that is
	// the property the serving cache's integrity check depends on.
	clone := m.Clone()
	clone.Part[0] = (clone.Part[0] + 1) % clone.NumClusters()
	if check.FingerprintHash(clone) == h1 {
		t.Fatal("FingerprintHash unchanged after mutating Part")
	}
	if check.FingerprintHash(nil) != check.FingerprintHash(nil) {
		t.Fatal("nil fingerprint hash not stable")
	}
}

// refFingerprint is the referee for check.Fingerprint: the original
// fmt-based serialization whose exact bytes stored fingerprints and
// served digests were produced from.
func refFingerprint(m *mapping.Mapping) string {
	if m == nil {
		return "<nil mapping>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "method=%s\npart=%v\nplace=%v\n", m.Method, m.Part, m.Place)
	phases := make([]string, 0, len(m.Routes))
	for name := range m.Routes {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	for _, name := range phases {
		fmt.Fprintf(&b, "routes[%s]=", name)
		for i, r := range m.Routes[name] {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v", []int(r))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFingerprintMatchesReferee requires Fingerprint to write exactly
// refFingerprint's bytes, and FingerprintHash to be their hex SHA-256,
// over pipeline mappings of seeded generated graphs (healthy and
// degraded machines) and synthetic mappings covering nil Part and
// Place, empty and nil routes, empty phases, multi-phase maps, and
// negative and multi-digit values.
func TestFingerprintMatchesReferee(t *testing.T) {
	same := func(t *testing.T, m *mapping.Mapping) {
		t.Helper()
		got, want := check.Fingerprint(m), refFingerprint(m)
		if got != want {
			t.Fatalf("Fingerprint differs from the fmt referee:\ngot:  %q\nwant: %q", got, want)
		}
		if h := check.FingerprintHash(m); h != fmt.Sprintf("%x", sha256.Sum256([]byte(want))) {
			t.Fatalf("FingerprintHash %s is not the hex SHA-256 of the fingerprint", h)
		}
	}
	same(t, nil)
	same(t, &mapping.Mapping{})
	same(t, &mapping.Mapping{Routes: map[string][]topology.Route{"": nil, "a": {}, "b": {nil, {}, {0}}}})
	mapped := 0
	gen.ForEachSeed(t, 30, func(t *testing.T, seed int64, r *rand.Rand) {
		same(t, syntheticMapping(r))
		g := gen.TaskGraph(r, gen.DefaultSize(r))
		net, _, _ := gen.Faults(r, gen.Network(r), 1, 1)
		comp := &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}
		if res, err := core.Map(core.Request{Compiled: comp, Net: net}); err == nil {
			same(t, res.Mapping)
			mapped++
		}
	})
	if mapped < 10 {
		t.Fatalf("only %d of 30 generated instances mapped: too few pipeline mappings compared", mapped)
	}
}

// syntheticMapping draws a mapping shell whose fields exercise every
// shape Fingerprint must serialize, independent of what the pipeline
// currently produces.
func syntheticMapping(r *rand.Rand) *mapping.Mapping {
	ints := func() []int {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		xs := make([]int, 1+r.Intn(12))
		for i := range xs {
			switch r.Intn(4) {
			case 0:
				xs[i] = -1 - r.Intn(1000)
			case 1:
				xs[i] = r.Int()
			default:
				xs[i] = r.Intn(100)
			}
		}
		return xs
	}
	m := &mapping.Mapping{Method: fmt.Sprintf("method-%d", r.Intn(5)), Part: ints(), Place: ints()}
	if r.Intn(5) == 0 {
		return m
	}
	m.Routes = make(map[string][]topology.Route)
	for p := r.Intn(5); p > 0; p-- {
		routes := make([]topology.Route, r.Intn(6))
		for i := range routes {
			routes[i] = ints()
		}
		m.Routes[fmt.Sprintf("phase%d", r.Intn(20))] = routes
	}
	return m
}
