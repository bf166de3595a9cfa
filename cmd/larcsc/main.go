// Command larcsc is the LaRCS compiler and static analyzer.
//
// Compile mode parses a LaRCS description, expands it for concrete
// parameter bindings, and prints the resulting task graph, phase
// schedule, and description-size statistics. Vet mode runs the
// internal/analysis passes over the *parametric* program — no bindings
// needed — and reports every diagnostic it can prove.
//
// Usage:
//
//	larcsc -file nbody.larcs -D n=15 -D s=2 [-dot] [-edges]
//	larcsc -workload nbody -D n=31
//	larcsc -workload nbody -D n=4095 -max-tasks 1000   # refuse huge expansions
//	larcsc vet -file prog.larcs [-json]                # static analysis only
//	larcsc vet prog1.larcs prog2.larcs
//	larcsc -vet -file prog.larcs -D n=15               # vet, then compile
//
// Mapping a program onto a network is cmd/oregami's job.
//
// Exit codes: 0 clean, 1 program defects (parse/vet/compile errors),
// 2 usage or I/O errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"oregami/internal/analysis"
	"oregami/internal/graph"
	"oregami/internal/larcs"
	"oregami/internal/phase"
	"oregami/internal/workload"
)

// Exit codes.
const (
	exitOK      = 0
	exitDefects = 1 // the LaRCS program is broken (parse/vet/compile)
	exitUsage   = 2 // the invocation is broken (flags, I/O)
)

type bindings map[string]int

func (b bindings) String() string { return fmt.Sprint(map[string]int(b)) }

func (b bindings) Set(s string) error {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("binding must be name=value, got %q", s)
	}
	v, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("binding %q: %v", s, err)
	}
	b[parts[0]] = v
	return nil
}

// usageError marks failures of the invocation (flags, missing files)
// rather than of the LaRCS program under analysis.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// errDefectsReported signals a nonzero exit after diagnostics have
// already been printed; main adds no further message.
var errDefectsReported = errors.New("diagnostics reported")

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "vet":
		err = runVet(args[1:])
	default:
		err = runCompile(args)
	}
	var usage usageError
	switch {
	case err == nil:
		os.Exit(exitOK)
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, "larcsc:", err)
		os.Exit(exitUsage)
	default:
		if !errors.Is(err, errDefectsReported) {
			fmt.Fprintln(os.Stderr, "larcsc:", err)
		}
		os.Exit(exitDefects)
	}
}

// source is one named LaRCS input resolved from -file/-workload/args;
// a file input is a Workload with only a Source.
type source struct {
	name string
	w    workload.Workload
}

func loadSources(file, wname string, extra []string) ([]source, error) {
	var out []source
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, usageError{err}
		}
		out = append(out, source{name: file, w: workload.Workload{Source: string(data)}})
	}
	if wname != "" {
		w, err := workload.ByName(wname)
		if err != nil {
			return nil, usageError{err}
		}
		out = append(out, source{name: "workload:" + w.Name, w: w})
	}
	for _, f := range extra {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, usageError{err}
		}
		out = append(out, source{name: f, w: workload.Workload{Source: string(data)}})
	}
	if len(out) == 0 {
		return nil, usageError{fmt.Errorf("need -file, -workload, or file arguments (available workloads: %s)", workloadNames())}
	}
	return out, nil
}

// runVet is the vet subcommand: static analysis only, no bindings.
func runVet(args []string) error {
	fs := flag.NewFlagSet("larcsc vet", flag.ContinueOnError)
	file := fs.String("file", "", "LaRCS source file")
	wname := fs.String("workload", "", "bundled workload name instead of -file")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	srcs, err := loadSources(*file, *wname, fs.Args())
	if err != nil {
		return err
	}
	defects := false
	for _, s := range srcs {
		diags := analysis.VetSource(s.w.Source)
		if analysis.HasErrors(diags) {
			defects = true
		}
		if *asJSON {
			out, err := analysis.RenderJSON(s.name, diags)
			if err != nil {
				return usageError{err}
			}
			os.Stdout.Write(out)
			fmt.Println()
		} else {
			fmt.Print(analysis.Render(s.name, diags))
		}
	}
	if defects {
		return errDefectsReported
	}
	return nil
}

// runCompile is the historical compile mode, optionally vetting first.
func runCompile(args []string) error {
	fs := flag.NewFlagSet("larcsc", flag.ContinueOnError)
	file := fs.String("file", "", "LaRCS source file")
	wname := fs.String("workload", "", "bundled workload name instead of -file")
	dot := fs.Bool("dot", false, "emit the task graph in Graphviz DOT format")
	edges := fs.Bool("edges", false, "list every communication edge (sorted)")
	vet := fs.Bool("vet", false, "run static analysis before compiling; vet errors abort")
	maxTasks := fs.Int("max-tasks", 0, "cap on the expanded task count (0 = default 1048576)")
	maxEdges := fs.Int("max-edges", 0, "cap on the expanded edge count (0 = default 4194304)")
	binds := bindings{}
	fs.Var(binds, "D", "parameter binding name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected arguments %v (did you mean 'larcsc vet'?)", fs.Args())}
	}
	srcs, err := loadSources(*file, *wname, nil)
	if err != nil {
		return err
	}
	s := srcs[0]
	all := s.w.Bindings(binds)

	if *vet {
		diags := analysis.VetSource(s.w.Source)
		fmt.Fprint(os.Stderr, analysis.Render(s.name, diags))
		if analysis.HasErrors(diags) {
			return fmt.Errorf("vet found errors; not compiling")
		}
	}
	prog, err := larcs.Parse(s.w.Source)
	if err != nil {
		return err
	}
	c, err := prog.Compile(all, larcs.Limits{MaxTasks: *maxTasks, MaxEdges: *maxEdges})
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(c.Graph.DOT())
		return nil
	}
	fmt.Printf("algorithm %s with bindings %v\n", prog.Name, all)
	fmt.Print(c.Graph.String())
	if c.Phases != nil {
		fmt.Printf("phase expression: %s\n", c.Phases)
		occ := phase.Occurrences(c.Phases)
		for _, p := range c.Graph.Comm {
			fmt.Printf("  %-12s occurs %d time(s)\n", p.Name, occ[p.Name])
		}
	}
	fmt.Printf("description size: %d bytes; expanded graph: %d tasks + %d edges\n",
		prog.DescriptionSize(), c.Graph.NumTasks, c.Graph.NumEdges())
	if *edges {
		for _, p := range c.Graph.Comm {
			fmt.Printf("phase %s:\n", p.Name)
			for _, e := range sortedEdges(p) {
				fmt.Printf("  %s -> %s (volume %g)\n", c.Graph.Labels[e.From], c.Graph.Labels[e.To], e.Weight)
			}
		}
	}
	return nil
}

// sortedEdges returns a copy of a phase's edges ordered by
// (From, To, Weight), so -edges output is deterministic regardless of
// expansion order.
func sortedEdges(p *graph.CommPhase) []graph.Edge {
	out := append([]graph.Edge(nil), p.Edges...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Weight < b.Weight
	})
	return out
}

func workloadNames() string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
