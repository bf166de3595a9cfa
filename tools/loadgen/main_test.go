package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oregami/client"
	"oregami/internal/serve"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("nbody@hypercube:3,jacobi@mesh:4,4,broadcast8@hypercube:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []target{
		{Workload: "nbody", Net: "hypercube:3"},
		{Workload: "jacobi", Net: "mesh:4,4"},
		{Workload: "broadcast8", Net: "hypercube:3"},
	}
	if len(mix) != len(want) {
		t.Fatalf("mix = %v, want %v", mix, want)
	}
	for i := range want {
		if mix[i].Workload != want[i].Workload || mix[i].Net != want[i].Net {
			t.Errorf("mix[%d] = %v, want %v", i, mix[i], want[i])
		}
	}
	// A trailing multi-comma net spec stays intact.
	mix, err = parseMix("jacobi@mesh:4,4")
	if err != nil || len(mix) != 1 || mix[0].Net != "mesh:4,4" {
		t.Errorf("single pair: mix=%v err=%v", mix, err)
	}
	for _, bad := range []string{"", "nonet", "@hypercube:3", "nbody@", "nbody:n@hypercube:3", "nbody:n=x@hypercube:3"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestParseMixBindings(t *testing.T) {
	mix, err := parseMix("nbody:n=255:s=3@hypercube:4,jacobi:n=24@mesh:4,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 {
		t.Fatalf("mix = %v, want 2 entries", mix)
	}
	if mix[0].Workload != "nbody" || mix[0].Net != "hypercube:4" ||
		mix[0].Bindings["n"] != 255 || mix[0].Bindings["s"] != 3 {
		t.Errorf("mix[0] = %+v", mix[0])
	}
	if mix[1].Workload != "jacobi" || mix[1].Net != "mesh:4,4" || mix[1].Bindings["n"] != 24 {
		t.Errorf("mix[1] = %+v", mix[1])
	}
}

func TestPercentile(t *testing.T) {
	if percentile(nil, 50) != 0 {
		t.Error("empty slice percentile not 0")
	}
	// 1..100 ms: nearest-rank percentiles are exact.
	ds := make([]time.Duration, 100)
	for i := range ds {
		// Reverse order: percentile must sort internally.
		ds[i] = time.Duration(100-i) * time.Millisecond
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{90, 90 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{0, 1 * time.Millisecond},
	} {
		if got := percentile(ds, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// The input must not be mutated (sorted copy).
	if ds[0] != 100*time.Millisecond {
		t.Error("percentile mutated its input")
	}
}

// TestRunAgainstServer drives the full cold/prime/warm cycle against an
// in-process mapping daemon and checks the emitted document.
func TestRunAgainstServer(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	var buf bytes.Buffer
	err := run([]string{
		"-addr", addr, "-n", "12", "-c", "3",
		"-mix", "broadcast8@hypercube:3,nbody@hypercube:3",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var doc Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Results) != 2 {
		t.Fatalf("results = %d, want 2 (cold, warm)", len(doc.Results))
	}
	cold, warm := doc.Results[0], doc.Results[1]
	if cold.Name != "ServeMapCold" || warm.Name != "ServeMapWarm" {
		t.Errorf("result names = %q, %q", cold.Name, warm.Name)
	}
	if cold.Iterations != 12 || warm.Iterations != 12 {
		t.Errorf("iterations = %d/%d, want 12/12", cold.Iterations, warm.Iterations)
	}
	if cold.Extra["errors"] != 0 || warm.Extra["errors"] != 0 {
		t.Errorf("errors: cold=%v warm=%v", cold.Extra["errors"], warm.Extra["errors"])
	}
	if warm.Extra["warm-hits"] != 12 {
		t.Errorf("warm-hits = %v, want 12", warm.Extra["warm-hits"])
	}
	if warm.Extra["hit-ratio"] <= 0 {
		t.Errorf("hit-ratio = %v, want > 0", warm.Extra["hit-ratio"])
	}
	if warm.Extra["speedup-x"] <= 0 {
		t.Errorf("speedup-x = %v, want > 0", warm.Extra["speedup-x"])
	}
	if doc.Meta["addr"] != addr {
		t.Errorf("meta addr = %q, want %q", doc.Meta["addr"], addr)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mix", "garbage"}, &buf); err == nil {
		t.Error("bad mix accepted")
	}
	if err := run([]string{}, &buf); err == nil || !strings.Contains(err.Error(), "-addr or -launch") {
		t.Errorf("missing target: err = %v", err)
	}
}

// TestRunClusterEndToEnd builds the real binary and drives the 3-node
// cluster harness: the warm rotation must produce cross-node proxied
// hits, and SIGKILLing a node mid-window must cost neither errors nor
// fingerprint drift.
func TestRunClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server processes")
	}
	bin := filepath.Join(t.TempDir(), "oregami")
	build := exec.Command("go", "build", "-o", bin, "oregami/cmd/oregami")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var buf bytes.Buffer
	err := run([]string{
		"-cluster", "3", "-launch", bin, "-n", "36", "-c", "3",
		"-mix", "broadcast8@hypercube:3,nbody@hypercube:3",
		"-kill-after", "300ms", "-window", "1500ms",
	}, &buf)
	if err != nil {
		t.Fatalf("run -cluster: %v\n%s", err, buf.String())
	}
	var doc Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Results) != 2 {
		t.Fatalf("results = %d, want 2 (warm, kill window)", len(doc.Results))
	}
	warm, kill := doc.Results[0], doc.Results[1]
	if warm.Name != "ClusterWarm" || kill.Name != "ClusterKillWindow" {
		t.Errorf("result names = %q, %q", warm.Name, kill.Name)
	}
	if warm.Extra["cross-node-hit-ratio"] <= 0 {
		t.Errorf("cross-node-hit-ratio = %v, want > 0", warm.Extra["cross-node-hit-ratio"])
	}
	if warm.Extra["fp-mismatches"] != 0 || kill.Extra["fp-mismatches"] != 0 {
		t.Errorf("fingerprint mismatches: warm=%v kill=%v",
			warm.Extra["fp-mismatches"], kill.Extra["fp-mismatches"])
	}
	if warm.Extra["errors"] != 0 || kill.Extra["errors"] != 0 {
		t.Errorf("errors: warm=%v kill=%v", warm.Extra["errors"], kill.Extra["errors"])
	}
	if kill.Iterations == 0 {
		t.Error("kill window served zero requests")
	}
	if doc.Meta["tool"] != "loadgen-cluster" || doc.Meta["nodes"] != "3" {
		t.Errorf("meta = %v", doc.Meta)
	}
}

func TestRunClusterFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-cluster", "3"}, &buf); err == nil || !strings.Contains(err.Error(), "-launch") {
		t.Errorf("-cluster without -launch: err = %v", err)
	}
	if err := run([]string{"-cluster", "1", "-launch", "/bin/false"}, &buf); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Errorf("-cluster 1: err = %v", err)
	}
	if err := run([]string{"-cluster", "3", "-chaos", "-launch", "/bin/false"}, &buf); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-cluster with -chaos: err = %v", err)
	}
}

func TestPhaseStatsResult(t *testing.T) {
	st := &phaseStats{
		N:       4,
		Elapsed: 2 * time.Second,
		Lat: []time.Duration{
			10 * time.Millisecond, 20 * time.Millisecond,
			30 * time.Millisecond, 40 * time.Millisecond,
		},
	}
	r := st.result("ServeMapCold", 8)
	if r.Name != "ServeMapCold" || r.Procs != 8 || r.Iterations != 4 {
		t.Errorf("header fields wrong: %+v", r)
	}
	if r.NsPerOp != float64(25*time.Millisecond) {
		t.Errorf("mean = %v, want 25ms", time.Duration(r.NsPerOp))
	}
	if r.Extra["rps"] != 2 {
		t.Errorf("rps = %v, want 2", r.Extra["rps"])
	}
	if r.Extra["p50-ns"] != float64(20*time.Millisecond) {
		t.Errorf("p50 = %v", time.Duration(r.Extra["p50-ns"]))
	}
}

// TestDriveRotatesClientsAndStops pins the shared request loop: the
// receiving client rotates once per pass over the mix, want mismatches
// are counted per slot, and a closed stop channel ends an unbounded run.
func TestDriveRotatesClientsAndStops(t *testing.T) {
	servers := make([]*serve.Server, 2)
	cls := make([]*client.Client, 2)
	for i := range servers {
		servers[i] = serve.New(serve.Config{})
		ts := httptest.NewServer(servers[i].Handler())
		defer ts.Close()
		cls[i] = client.New(ts.URL, client.WithRetries(1))
	}
	mix := []target{{Workload: "broadcast8", Net: "hypercube:3"}, {Workload: "nbody", Net: "hypercube:3"}}
	st := drive(cls, mix, 8, 2, client.MapOptions{}, []string{"bogus", ""}, nil)
	if st.N != 8 || st.Errors != 0 {
		t.Fatalf("N=%d errors=%d, want 8 clean requests", st.N, st.Errors)
	}
	for i, s := range servers {
		if got := s.Stats().Requests.Load(); got != 4 {
			t.Errorf("client %d received %d requests, want 4", i, got)
		}
	}
	if st.Mismatch != 4 || st.FPs[0] == "" || st.FPs[1] == "" {
		t.Errorf("mismatch=%d FPs=%q, want 4 mismatches on slot 0 and both slots fingerprinted", st.Mismatch, st.FPs)
	}
	stop := make(chan struct{})
	close(stop)
	if st := drive(cls, mix, math.MaxInt, 2, client.MapOptions{}, nil, stop); st.N != 0 {
		t.Errorf("closed stop still sent %d requests", st.N)
	}
}
