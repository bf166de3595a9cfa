// Command oregami runs the full pipeline — LaRCS compilation, MAPPER,
// METRICS — and optionally opens the textual metrics shell, the
// repository's stand-in for the paper's interactive Mac display: inspect
// the mapping, move tasks between processors, and watch the metrics and
// simulated completion time recompute.
//
// Fault tolerance: -fail-procs/-fail-links mask hardware before mapping
// (the pipeline only places and routes on the live machine), and
// -inject-faults fails hardware mid-simulation, repairing the mapping in
// degraded mode between schedule steps. -max-tasks/-max-edges bound the
// LaRCS expansion (defaults 1048576 tasks / 4194304 edges).
//
// Usage:
//
//	oregami -workload nbody -D n=15 -D s=2 -net hypercube:3
//	oregami -file prog.larcs -D n=64 -net mesh:8,8 -algo arbitrary -shell
//	oregami -workload nbody -net hypercube:3 -fail-procs 5 -fail-links 0
//	oregami -workload nbody -net hypercube:3 -inject-faults step=1,proc=5
//	oregami serve -addr 127.0.0.1:8080
//
// The serve subcommand starts the long-running mapping daemon
// (internal/serve, documented in docs/SERVE.md).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"oregami/internal/analysis"
	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/fault"
	"oregami/internal/larcs"
	"oregami/internal/metrics"
	"oregami/internal/phase"
	"oregami/internal/route"
	"oregami/internal/sim"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "oregami serve:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oregami:", err)
		os.Exit(1)
	}
}

type bindings map[string]int

func (b bindings) String() string { return fmt.Sprint(map[string]int(b)) }

func (b bindings) Set(s string) error {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("binding must be name=value, got %q", s)
	}
	v, err := strconv.Atoi(parts[1])
	if err != nil {
		return err
	}
	b[parts[0]] = v
	return nil
}

// eventList collects repeatable -inject-faults flags.
type eventList []sim.FaultEvent

func (e *eventList) String() string { return fmt.Sprint([]sim.FaultEvent(*e)) }

func (e *eventList) Set(s string) error {
	ev, err := sim.ParseFaultEvent(s)
	if err != nil {
		return err
	}
	*e = append(*e, ev)
	return nil
}

// parseIDList parses "0,5,7" into ids.
func parseIDList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("id list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(out *os.File) error {
	file := flag.String("file", "", "LaRCS source file")
	wname := flag.String("workload", "", "bundled workload name")
	netSpec := flag.String("net", "", "target network, e.g. hypercube:3 or mesh:4,4")
	algo := flag.String("algo", "", "algorithm class to run: canned|systolic|group-theoretic|arbitrary|multilevel|recursive-bisection (empty = auto-dispatch)")
	doSim := flag.Bool("sim", true, "simulate the phase schedule and report completion time")
	dot := flag.Bool("dot", false, "emit the mapping as Graphviz DOT and exit")
	shell := flag.Bool("shell", false, "open the interactive metrics shell after mapping")
	doCheck := flag.Bool("check", false, "verify the mapping with the post-condition oracle; violations fail the run")
	parallel := flag.Int("parallel", 0, "worker budget for MAPPER's parallel hot paths (0 = all CPUs, 1 = sequential; result is identical at every setting)")
	maxTasks := flag.Int("max-tasks", 0, "cap on the expanded task count (0 = default 1048576)")
	maxEdges := flag.Int("max-edges", 0, "cap on the expanded edge count (0 = default 4194304)")
	failProcs := flag.String("fail-procs", "", "comma-separated processor ids failed before mapping")
	failLinks := flag.String("fail-links", "", "comma-separated link ids failed before mapping")
	var injected eventList
	flag.Var(&injected, "inject-faults", "mid-simulation fault event, e.g. step=2,proc=1,link=5 (repeatable)")
	binds := bindings{}
	flag.Var(binds, "D", "parameter binding name=value (repeatable)")
	flag.Parse()

	if *netSpec == "" {
		return fmt.Errorf("need -net (e.g. -net hypercube:3)")
	}
	net, err := topology.ParseSpec(*netSpec)
	if err != nil {
		return err
	}
	preProcs, err := parseIDList(*failProcs)
	if err != nil {
		return err
	}
	preLinks, err := parseIDList(*failLinks)
	if err != nil {
		return err
	}
	if len(preProcs) > 0 || len(preLinks) > 0 {
		model := fault.NewModel()
		for _, p := range preProcs {
			model.FailProcessor(p)
		}
		for _, l := range preLinks {
			model.FailLink(l)
		}
		net, err = model.Mask(net)
		if err != nil {
			return err
		}
	}

	var src, srcName string
	all := map[string]int{}
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		src = string(data)
		srcName = *file
	case *wname != "":
		w, err := workload.ByName(*wname)
		if err != nil {
			return err
		}
		src = w.Source
		srcName = "workload:" + w.Name
		for k, v := range w.Defaults {
			all[k] = v
		}
	default:
		return fmt.Errorf("need -file or -workload")
	}
	for k, v := range binds {
		all[k] = v
	}
	// Vet before compiling: warnings go to stderr and the pipeline
	// continues; provable defects stop it before any expansion work.
	diags := analysis.VetSource(src)
	if len(diags) > 0 {
		fmt.Fprint(os.Stderr, analysis.Render(srcName, diags))
	}
	if analysis.HasErrors(diags) {
		return fmt.Errorf("%s has vet errors (see diagnostics above)", srcName)
	}
	prog, err := larcs.Parse(src)
	if err != nil {
		return err
	}
	c, err := prog.Compile(all, larcs.Limits{MaxTasks: *maxTasks, MaxEdges: *maxEdges})
	if err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all CPUs), got %d", *parallel)
	}
	res, err := core.Map(core.Request{Compiled: c, Net: net, Force: core.Class(*algo), Check: *doCheck, Parallelism: *parallel})
	if err != nil {
		return err
	}
	if *doCheck {
		fmt.Fprintln(out, "check: mapping verified, 0 violations")
	}
	if *dot {
		fmt.Fprint(out, metrics.DOT(res.Mapping))
		return nil
	}
	if net.Degraded() {
		fmt.Fprintf(out, "degraded machine: failed procs %v, failed links %v (%d live)\n",
			net.FailedProcessors(), net.FailedLinks(), net.NumLive())
	}
	fmt.Fprintf(out, "MAPPER class: %s\n", res.Class)
	for _, line := range res.Trail {
		fmt.Fprintf(out, "  %s\n", line)
	}
	rep, err := metrics.Compute(res.Mapping)
	if err != nil {
		return err
	}
	fmt.Fprint(out, metrics.Render(res.Mapping, rep))
	if len(injected) > 0 {
		if c.Phases == nil {
			return fmt.Errorf("-inject-faults needs a phase expression to schedule")
		}
		steps, err := phase.Flatten(c.Phases, 1<<20)
		if err != nil {
			return err
		}
		fres, err := sim.RunWithFaults(res.Mapping, steps, sim.Config{}, injected)
		if err != nil {
			return err
		}
		for _, r := range fres.Reports {
			fmt.Fprintf(out, "%s\n", r)
		}
		fmt.Fprintf(out, "simulated completion time under faults: %g ticks\n", fres.Total)
	} else if *doSim && c.Phases != nil {
		total, err := sim.Makespan(res.Mapping, c.Phases, sim.Config{}, 1<<20)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "simulated completion time: %g ticks\n", total)
	}
	if *shell {
		return metricsShell(os.Stdin, out, res, c)
	}
	return nil
}

// metricsShell is the textual modify-and-recompute loop.
func metricsShell(in *os.File, out *os.File, res *core.Result, c *larcs.Compiled) error {
	fmt.Fprintln(out, "metrics shell: commands are show | move <task> <proc> | check | sim | util | quit")
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit", "q":
			return nil
		case "show":
			rep, err := metrics.Compute(res.Mapping)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, metrics.Render(res.Mapping, rep))
		case "move":
			if len(fields) != 3 {
				fmt.Fprintln(out, "usage: move <task> <proc>")
				continue
			}
			task, err1 := strconv.Atoi(fields[1])
			proc, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				fmt.Fprintln(out, "usage: move <task> <proc>")
				continue
			}
			if err := metrics.ReassignTask(res.Mapping, task, proc); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if _, err := route.RouteAll(res.Mapping, route.Options{}); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "moved task %d to processor %d; routes recomputed\n", task, proc)
		case "check":
			rep, err := metrics.Compute(res.Mapping)
			if err != nil {
				rep = nil
			}
			if vs := check.Verify(c.Graph, res.Mapping.Net, res.Mapping, rep); len(vs) > 0 {
				fmt.Fprint(out, check.Render(vs))
			} else {
				fmt.Fprintln(out, "check: mapping verified, 0 violations")
			}
		case "sim":
			if c.Phases == nil {
				fmt.Fprintln(out, "no phase expression")
				continue
			}
			total, err := sim.Makespan(res.Mapping, c.Phases, sim.Config{}, 1<<20)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "simulated completion time: %g ticks\n", total)
		case "util":
			if c.Phases == nil {
				fmt.Fprintln(out, "no phase expression")
				continue
			}
			steps, err := phase.Flatten(c.Phases, 1<<20)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			u, err := sim.Utilize(res.Mapping, steps, sim.Config{})
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, u.Render())
		default:
			fmt.Fprintln(out, "commands: show | move <task> <proc> | check | sim | util | quit")
		}
	}
}
