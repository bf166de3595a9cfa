package main

import (
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "oregami-cli")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestCLIPipeline(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "nbody", "-net", "hypercube:3").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"MAPPER class: arbitrary", "total IPC", "simulated completion time"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCLIForceAndMeshNet(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "jacobi", "-net", "mesh:4,4", "-algo", "arbitrary", "-sim=false").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "MAPPER class: arbitrary") {
		t.Errorf("-algo ignored:\n%s", out)
	}
}

func TestCLIMetricsShell(t *testing.T) {
	bin := buildCmd(t)
	cmd := exec.Command(bin, "-workload", "broadcast8", "-net", "hypercube:2", "-sim=false", "-shell")
	cmd.Stdin = strings.NewReader("show\nmove 0 1\nsim\nutil\nbogus\nquit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"metrics shell", "moved task 0 to processor 1", "simulated completion time", "utilization", "commands:"} {
		if !strings.Contains(s, want) {
			t.Errorf("shell output missing %q:\n%s", want, s)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	bin := buildCmd(t)
	for _, args := range [][]string{
		{},
		{"-workload", "nbody"},                  // no net
		{"-workload", "nbody", "-net", "bogus"}, // bad net syntax
		{"-workload", "nbody", "-net", "nosuch:3"},                      // unknown family
		{"-workload", "zzz", "-net", "hypercube:3"},                     // unknown workload
		{"-workload", "nbody", "-net", "mesh:2,2", "-algo", "systolic"}, // inapplicable class
		{"-workload", "nbody", "-net", "hypercube:3", "extra"},          // stray positional argument
	} {
		if out, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Errorf("args %v accepted:\n%s", args, out)
		}
	}
}

func TestCLIPreFailedHardware(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "nbody", "-net", "hypercube:3",
		"-fail-procs", "5", "-fail-links", "0", "-sim=false").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"degraded machine: failed procs [5]", "MAPPER class: arbitrary"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// Processor 5 must host no tasks in the rendered layout.
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "proc   5:") && !strings.HasSuffix(line, "-") {
			t.Errorf("failed processor 5 hosts tasks: %q", line)
		}
	}
}

func TestCLIInjectFaults(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "nbody", "-net", "hypercube:3",
		"-inject-faults", "step=1,proc=5", "-inject-faults", "step=2,link=3").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"repair: failed procs [5]",
		"repair: failed procs [] links [3]",
		"simulated completion time under faults",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// Malformed event syntax must be rejected at flag parse time.
	if out, err := exec.Command(bin, "-workload", "nbody", "-net", "hypercube:3",
		"-inject-faults", "step=1").CombinedOutput(); err == nil {
		t.Errorf("event with no proc/link accepted:\n%s", out)
	}
}

func TestCLIExpansionLimits(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "nbody", "-net", "hypercube:3", "-max-tasks", "4").CombinedOutput()
	if err == nil {
		t.Fatalf("expansion over -max-tasks accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "task limit 4") {
		t.Errorf("limit error not surfaced:\n%s", out)
	}
}

// exitCode digs the process exit status out of an exec error; -1 means
// the command did not run or was killed by a signal.
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

func TestCLIBadFlagsExit2(t *testing.T) {
	bin := buildCmd(t)
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-D", "not-a-binding"},
		{"serve", "-no-such-flag"},
		{"serve", "-workers", "x"},
		{"-workload", "nbody", "-net", "hypercube:3", "-force", "arbitrary"}, // retired alias of -algo
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if got := exitCode(err); got != 2 {
			t.Errorf("args %v: exit = %d, want 2\n%s", args, got, out)
		}
	}
}

func TestCLICheckPropagates(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "broadcast8", "-net", "hypercube:3",
		"-check", "-sim=false").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "check: mapping verified, 0 violations") {
		t.Errorf("-check did not reach the oracle:\n%s", out)
	}
}

func TestCLIServeRejectsBadAddr(t *testing.T) {
	bin := buildCmd(t)
	for _, addr := range []string{"127.0.0.1:notaport", "not an address"} {
		out, err := exec.Command(bin, "serve", "-addr", addr).CombinedOutput()
		if got := exitCode(err); got != 1 {
			t.Fatalf("serve -addr %q: exit = %d, want 1\n%s", addr, got, out)
		}
		if !strings.Contains(string(out), addr) {
			t.Errorf("serve -addr %q error does not name the address:\n%s", addr, out)
		}
	}
	// Positional arguments are a usage error too.
	out, err := exec.Command(bin, "serve", "extra").CombinedOutput()
	if got := exitCode(err); got != 1 {
		t.Errorf("serve with positional arg: exit = %d, want 1\n%s", got, out)
	}
	if !strings.Contains(string(out), "positional") {
		t.Errorf("positional-arg error not surfaced:\n%s", out)
	}
}

func TestCLIServeRoundTrip(t *testing.T) {
	bin := buildCmd(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var addr string
	for i := 0; i < 100; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never wrote its address\n%s", buf.String())
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v\n%s", err, buf.String())
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
	// SIGTERM must drain gracefully: exit status 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("serve did not exit cleanly after SIGTERM: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "drained and stopped") {
		t.Errorf("drain message missing:\n%s", buf.String())
	}
}

func TestCLIDot(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "broadcast8", "-net", "hypercube:2", "-dot").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "digraph") || !strings.Contains(string(out), "cluster_p0") {
		t.Errorf("dot output malformed:\n%s", out)
	}
}

func TestCLIAlgoMultilevel(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-workload", "nbody", "-net", "hier:2,2,4", "-algo", "multilevel", "-sim=false", "-check").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"MAPPER class: multilevel", "refine moves", "check: mapping verified"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	out, err = exec.Command(bin, "-workload", "jacobi", "-net", "hier:4,4", "-algo", "recursive-bisection", "-sim=false").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "MAPPER class: recursive-bisection") {
		t.Errorf("baseline class missing:\n%s", out)
	}
}
