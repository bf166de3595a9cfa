// Command benchjson converts `go test -bench` text output (read from
// stdin or a file argument) into a JSON document, so CI can archive
// benchmark results as a machine-readable artifact and diff runs.
// `make bench-multilevel` uses it to gate the multilevel scale
// benchmark against the committed BENCH_multilevel.json.
//
// Usage:
//
//	go test -bench . -benchmem | go run ./tools/benchjson > bench.json
//	go run ./tools/benchjson bench.txt > bench.json
//	go run ./tools/benchjson -baseline BENCH_multilevel.json bench.txt > new.json
//
// With -baseline, the converted run is also compared against a
// previously archived document: any benchmark present in both whose
// allocs/op grew more than -alloc-tolerance (default 10%) is reported
// and the exit status is 1. Wall-clock is deliberately not gated — it
// is too machine-dependent for CI — but the allocation profile is
// deterministic, so growth there is a real regression.
//
// Lines that are not benchmark results (build chatter, PASS/ok
// trailers) are ignored; goos/goarch/pkg/cpu headers are captured as
// metadata.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line in structured form.
type Result struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix ("-8") stripped off Name, 0 if none.
	Procs      int     `json:"procs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are present with -benchmem.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Extra holds any additional unit pairs (e.g. MB/s or custom
	// ReportMetric units), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Document is the whole converted run.
type Document struct {
	Meta    map[string]string `json:"meta,omitempty"`
	Results []Result          `json:"results"`
}

func main() {
	baselinePath := flag.String("baseline", "", "archived benchjson document to gate allocs/op against")
	tolerance := flag.Float64("alloc-tolerance", 0.10, "allowed fractional allocs/op growth over the baseline")
	flag.Parse()
	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	doc, err := Convert(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if *baselinePath == "" {
		return
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	var base Document
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing baseline %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	regressions := CompareAllocs(&base, doc, *tolerance)
	for _, msg := range regressions {
		fmt.Fprintln(os.Stderr, "benchjson:", msg)
	}
	if len(regressions) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: allocs/op within %.0f%% of %s\n", *tolerance*100, *baselinePath)
}

// CompareAllocs reports one message per benchmark whose allocs/op grew
// more than tolerance (fractional) over the baseline document.
// Benchmarks present on only one side are ignored: the gate watches
// drift on shared names, not suite membership.
func CompareAllocs(base, cur *Document, tolerance float64) []string {
	baseline := make(map[string]int64, len(base.Results))
	for _, r := range base.Results {
		if r.AllocsPerOp != nil {
			baseline[r.Name] = *r.AllocsPerOp
		}
	}
	var out []string
	for _, r := range cur.Results {
		was, ok := baseline[r.Name]
		if !ok || r.AllocsPerOp == nil {
			continue
		}
		got := *r.AllocsPerOp
		if float64(got) > float64(was)*(1+tolerance) {
			out = append(out, fmt.Sprintf("%s allocs/op regressed: %d -> %d (%.1f%% over the %.0f%% tolerance baseline)",
				r.Name, was, got, 100*(float64(got)/float64(was)-1), tolerance*100))
		}
	}
	return out
}

// Convert parses benchmark text into a Document.
func Convert(in io.Reader) (*Document, error) {
	doc := &Document{Meta: map[string]string{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Meta[key] = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if r, ok := parseLine(line); ok {
			doc.Results = append(doc.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// parseLine parses one "BenchmarkName-8  123  456 ns/op  [...]" line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	r := Result{Name: fields[0]}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	// The rest are (value, unit) pairs.
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
			sawNs = true
		case "B/op":
			b := int64(val)
			r.BytesPerOp = &b
		case "allocs/op":
			a := int64(val)
			r.AllocsPerOp = &a
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = val
		}
	}
	return r, sawNs
}
