package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles this command once per test binary.
func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "larcsc")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestCLIWorkload(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "nbody", "-D", "n=31").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"31 tasks", "ring", "chordal", "description size"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCLIFileAndDot(t *testing.T) {
	bin := buildCmd(t)
	src := filepath.Join(t.TempDir(), "p.larcs")
	prog := "algorithm tiny(n);\nnodetype t 0..n-1;\ncomphase c { forall i in 0..n-2 : t(i) -> t(i+1); }\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-file", src, "-D", "n=4", "-dot").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "digraph") || !strings.Contains(string(out), "0 -> 1") {
		t.Errorf("DOT output malformed:\n%s", out)
	}
	// -edges listing.
	out, err = exec.Command(bin, "-file", src, "-D", "n=3", "-edges").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 -> 1 (volume 1)") {
		t.Errorf("edge listing missing:\n%s", out)
	}
}

// exitCode runs the binary and returns its exit code plus output.
func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("run %v: %v\n%s", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

func TestCLIErrors(t *testing.T) {
	bin := buildCmd(t)
	// Usage failures exit 2: no input, unknown workload, malformed
	// binding, unreadable file, unknown flag.
	for _, args := range [][]string{
		{},
		{"-no-such-flag"},
		{"-workload", "zzz"},
		{"-workload", "nbody", "-D", "n"},
		{"-file", filepath.Join(t.TempDir(), "missing.larcs")},
		{"vet"},
		{"vet", "-no-such-flag"},
		{"vet", filepath.Join(t.TempDir(), "missing.larcs")},
		{"map", "-workload", "jacobi", "-net", "hier:2,2,4", "-force", "arbitrary"}, // retired alias of -algo
	} {
		if code, out := exitCode(t, bin, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
	// Program defects exit 1: a parse error in the source.
	bad := filepath.Join(t.TempDir(), "bad.larcs")
	if err := os.WriteFile(bad, []byte("algorithm broken(\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := exitCode(t, bin, "-file", bad); code != 1 {
		t.Errorf("parse error: exit %d, want 1\n%s", code, out)
	}
}

func TestCLIVet(t *testing.T) {
	bin := buildCmd(t)
	dir := t.TempDir()
	buggy := filepath.Join(dir, "buggy.larcs")
	prog := "algorithm buggy(n);\nnodetype t 0..n-1;\ncomphase c { forall i in 0..n-1 : t(i) -> t(i+1); }\n"
	if err := os.WriteFile(buggy, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := exitCode(t, bin, "vet", "-file", buggy)
	if code != 1 {
		t.Errorf("vet of buggy program: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "[oob]") || !strings.Contains(out, "buggy.larcs:3:") {
		t.Errorf("vet output missing oob diagnostic with position:\n%s", out)
	}
	// JSON mode decodes and carries the same code.
	code, out = exitCode(t, bin, "vet", "-json", "-file", buggy)
	if code != 1 {
		t.Errorf("vet -json: exit %d, want 1\n%s", code, out)
	}
	var diags []map[string]interface{}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("vet -json output is not JSON: %v\n%s", err, out)
	}
	foundOOB := false
	for _, d := range diags {
		if d["code"] == "oob" {
			foundOOB = true
		}
	}
	if !foundOOB {
		t.Errorf("vet -json missing oob diagnostic: %v", diags)
	}

	// A clean workload vets silently with exit 0 — no bindings needed.
	code, out = exitCode(t, bin, "vet", "-workload", "nbody")
	if code != 0 || out != "" {
		t.Errorf("vet of nbody: exit %d output %q, want 0 and empty", code, out)
	}

	// Positional file arguments work too.
	if code, _ := exitCode(t, bin, "vet", buggy); code != 1 {
		t.Errorf("vet with positional file: exit %d, want 1", code)
	}

	// -vet on the compile path aborts compilation on errors...
	code, out = exitCode(t, bin, "-vet", "-file", buggy, "-D", "n=4")
	if code != 1 || !strings.Contains(out, "not compiling") {
		t.Errorf("-vet did not abort compile: exit %d\n%s", code, out)
	}
	// ...and stays quiet on a clean program.
	code, out = exitCode(t, bin, "-vet", "-workload", "nbody", "-D", "n=7")
	if code != 0 || !strings.Contains(out, "description size") {
		t.Errorf("-vet broke clean compile: exit %d\n%s", code, out)
	}
}

func TestCLIEdgesSorted(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "nbody", "-D", "n=7", "-edges").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Within each phase the "<from> -> <to>" lines must be sorted.
	var prev string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "phase ") {
			prev = ""
			continue
		}
		if !strings.Contains(line, " -> ") {
			continue
		}
		if prev != "" && line < prev {
			t.Fatalf("-edges output unsorted: %q after %q\n%s", line, prev, out)
		}
		prev = line
	}
	// And two runs agree byte for byte.
	out2, err := exec.Command(bin, "-workload", "nbody", "-D", "n=7", "-edges").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out2)
	}
	if string(out) != string(out2) {
		t.Error("-edges output not deterministic across runs")
	}
}

func TestCLIExpansionLimits(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "nbody", "-max-tasks", "4").CombinedOutput()
	if err == nil {
		t.Fatalf("expansion over -max-tasks accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "task limit 4") {
		t.Errorf("limit error not surfaced:\n%s", out)
	}
	out, err = exec.Command(bin, "-workload", "nbody", "-max-edges", "5").CombinedOutput()
	if err == nil {
		t.Fatalf("expansion over -max-edges accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "edge limit 5") {
		t.Errorf("limit error not surfaced:\n%s", out)
	}
}

func TestCLIAlgo(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "map", "-workload", "jacobi", "-net", "hier:2,2,4", "-algo", "recursive-bisection").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "class recursive-bisection") {
		t.Errorf("class missing:\n%s", out)
	}
	out, err = exec.Command(bin, "map", "-workload", "jacobi", "-net", "hier:2,2,4", "-algo", "multilevel").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "class multilevel") {
		t.Errorf("class missing:\n%s", out)
	}
}
