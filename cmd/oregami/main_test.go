package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"oregami/internal/core"
	"oregami/internal/topology"
	"oregami/internal/workload"
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
		{"-workload", "nbody", "-net", "nosuch:3"},                       // unknown family
		{"-workload", "zzz", "-net", "hypercube:3"},                      // unknown workload
		{"-workload", "nbody", "-net", "mesh:2,2", "-algo", "systolic"},  // inapplicable class
		{"-workload", "nbody", "-net", "hypercube:3", "extra"},           // stray positional argument
		{"-workload", "nbody", "-net", "hypercube:3", "-parallel", "-1"}, // negative worker budget
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
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-workload", "nbody", "-net", "hier:2,2,4", "-algo", "multilevel", "-check"},
			[]string{"MAPPER class: multilevel", "refine moves", "check: mapping verified"}},
		{[]string{"-workload", "jacobi", "-net", "hier:4,4", "-algo", "recursive-bisection"},
			[]string{"MAPPER class: recursive-bisection"}},
	}
	for _, tc := range cases {
		out, err := exec.Command(bin, append(tc.args, "-sim=false")...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		for _, want := range tc.want {
			if !strings.Contains(string(out), want) {
				t.Errorf("%v: output missing %q:\n%s", tc.args, want, out)
			}
		}
	}
}

// TestCLIAlgo runs each -algo class by name on jacobi over hier:2,2,4 and
// checks that an unknown class is refused with the class table in the
// message.
func TestCLIAlgo(t *testing.T) {
	bin := buildCmd(t)
	for _, class := range []string{"recursive-bisection", "multilevel"} {
		out, err := exec.Command(bin, "-workload", "jacobi", "-net", "hier:2,2,4", "-algo", class, "-sim=false").CombinedOutput()
		if err != nil {
			t.Fatalf("-algo %s: %v\n%s", class, err, out)
		}
		if !strings.Contains(string(out), "MAPPER class: "+class) {
			t.Errorf("-algo %s: class missing:\n%s", class, out)
		}
	}
	out, err := exec.Command(bin, "-workload", "nbody", "-net", "hypercube:3", "-algo", "bogus").CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Errorf("-algo bogus: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(string(out), `unknown algorithm class "bogus"`) {
		t.Errorf("-algo bogus: message missing the class:\n%s", out)
	}
}

// TestShellMoveRollsBackOnRouteFailure drives the shell's move on a
// machine split in two (nbody n=6 on ring(6) with processors 1 and 4
// masked behind the mapping's back): the reroute fails, so the shell
// must report the error and leave Part, Place and Routes as they were.
func TestShellMoveRollsBackOnRouteFailure(t *testing.T) {
	w, _ := workload.ByName("nbody")
	c, err := w.Compile(map[string]int{"n": 6, "s": 1})
	if err != nil {
		t.Fatal(err)
	}
	net := topology.Ring(6)
	res, err := core.Map(core.Request{Compiled: c, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mapping
	if m.Net, err = net.Masked([]int{1, 4}, nil); err != nil {
		t.Fatal(err)
	}
	before := m.Clone()
	target := -1
	for p := 0; p < 6 && target == -1; p++ {
		if m.Net.Alive(p) && m.ProcOf(0) != p {
			target = p
		}
	}
	var out strings.Builder
	in := strings.NewReader(fmt.Sprintf("move 0 %d\nquit\n", target))
	if err := metricsShell(in, &out, res, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "error:") || strings.Contains(out.String(), "moved task") {
		t.Errorf("move on a split machine did not report an error:\n%s", out.String())
	}
	if !reflect.DeepEqual(m.Part, before.Part) || !reflect.DeepEqual(m.Place, before.Place) {
		t.Errorf("failed move changed the mapping: Part %v Place %v, want %v %v", m.Part, m.Place, before.Part, before.Place)
	}
	if !reflect.DeepEqual(m.Routes, before.Routes) {
		t.Errorf("failed move changed the routes")
	}
}

// TestServeFlagsDocumented keeps docs/SERVE.md's "Starting the server"
// block in step with the flags `oregami serve -h` prints.
func TestServeFlagsDocumented(t *testing.T) {
	bin := buildCmd(t)
	help, _ := exec.Command(bin, "serve", "-h").CombinedOutput()
	var have []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(string(help), -1) {
		have = append(have, m[1])
	}
	doc, err := os.ReadFile("../../docs/SERVE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Starting the server")
	if !ok {
		t.Fatal("docs/SERVE.md has no \"Starting the server\" section")
	}
	parts := strings.SplitN(section, "```", 3)
	if len(parts) < 3 {
		t.Fatal("\"Starting the server\" has no fenced block")
	}
	// A flag line starts at column 0 and may name several flags:
	// "-max-tasks, -max-edges ...".
	flagLine := regexp.MustCompile(`^-[a-z-]+(?:, -[a-z-]+)*`)
	var documented []string
	for _, line := range strings.Split(parts[1], "\n") {
		for _, name := range strings.Split(flagLine.FindString(line), ", ") {
			if name != "" {
				documented = append(documented, strings.TrimPrefix(name, "-"))
			}
		}
	}
	sort.Strings(have)
	sort.Strings(documented)
	if len(have) == 0 || !reflect.DeepEqual(have, documented) {
		t.Errorf("serve flags differ from docs/SERVE.md:\n  -h:   %v\n  docs: %v", have, documented)
	}
}
