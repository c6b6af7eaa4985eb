// Command benchjson converts `go test -bench` text output into a JSON
// summary, so CI can publish benchmark artifacts (make bench writes
// BENCH_sweep.json) without external tooling. Only the standard library is
// used and nothing here consults wall-clock time or randomness: the same
// input produces byte-identical JSON.
//
// With -compare it instead diffs two runs: the flag names the baseline
// (a previously written JSON artifact or raw bench text — auto-detected),
// the positional argument or stdin supplies the new run, and the report
// lists per-benchmark ns/op deltas and speedups plus any unmatched names.
// Names match without go test's trailing -GOMAXPROCS suffix, so a baseline
// recorded at -cpu 1 (no suffix) compares against a run on a 4-CPU runner.
//
// Usage:
//
//	go test -bench 'BenchmarkSweep' . | benchjson -o BENCH_sweep.json
//	benchjson -o BENCH_sweep.json bench_sweep.out
//	benchjson -compare BENCH_kernel.json bench_kernel.out
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line. Metrics maps unit suffixes
// ("ns/op", "B/op", custom ReportMetric units) to values; encoding/json
// serializes map keys sorted, keeping the output deterministic.
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// parseBenchLine parses one `go test -bench` result line of the form
//
//	BenchmarkName-8   	     100	  12345 ns/op	  64 B/op	   2 allocs/op
//
// returning ok=false for non-benchmark lines (headers, PASS, ok ...).
func parseBenchLine(line string) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchResult{}, false
	}
	it, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: f[0], Iterations: it, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}

// parse reads benchmark output and returns the parsed results in input
// order.
func parse(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if res, ok := parseBenchLine(sc.Text()); ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// loadResults reads benchmark results from either format: a JSON artifact
// this tool wrote earlier, or raw `go test -bench` text. A leading '[' that
// unmarshals cleanly selects JSON; everything else goes through the text
// parser.
func loadResults(r io.Reader) ([]benchResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		var out []benchResult
		if err := json.Unmarshal(trimmed, &out); err == nil {
			return out, nil
		}
	}
	return parse(bytes.NewReader(data))
}

// benchKey strips the -GOMAXPROCS suffix go test appends to a benchmark
// name when GOMAXPROCS > 1 ("BenchmarkA/b-4" -> "BenchmarkA/b"). A name
// whose last element itself ends in -<digits> is indistinguishable from a
// suffixed one, so benchmarks are not named that way.
func benchKey(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// compareReport renders the per-benchmark ns/op comparison of two runs,
// matching names by benchKey. Matched benchmarks appear in the new run's
// order with delta and speedup; names present in only one run are listed
// afterwards, so a renamed or dropped benchmark cannot silently vanish from
// the report.
func compareReport(old, cur []benchResult) string {
	oldNS := make(map[string]float64, len(old))
	matched := make(map[string]bool, len(old))
	for _, r := range old {
		oldNS[benchKey(r.Name)] = r.Metrics["ns/op"]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %14s %14s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "speedup")
	for _, r := range cur {
		ns := r.Metrics["ns/op"]
		k := benchKey(r.Name)
		o, ok := oldNS[k]
		if !ok {
			continue
		}
		matched[k] = true
		delta, speedup := "n/a", "n/a"
		if o > 0 {
			delta = fmt.Sprintf("%+.1f%%", (ns-o)/o*100)
			if ns > 0 {
				speedup = fmt.Sprintf("%.2fx", o/ns)
			}
		}
		fmt.Fprintf(&b, "%-44s %14.2f %14.2f %9s %9s\n", r.Name, o, ns, delta, speedup)
	}
	for _, r := range cur {
		if _, ok := oldNS[benchKey(r.Name)]; !ok {
			fmt.Fprintf(&b, "only in new: %s\n", r.Name)
		}
	}
	for _, r := range old {
		if !matched[benchKey(r.Name)] {
			fmt.Fprintf(&b, "only in old: %s\n", r.Name)
		}
	}
	return b.String()
}

func main() {
	outPath := flag.String("o", "", "write JSON here (default stdout)")
	comparePath := flag.String("compare", "", "compare the input against this baseline (JSON artifact or bench text) instead of emitting JSON")
	flag.Parse()

	var in io.Reader = os.Stdin
	if args := flag.Args(); len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	} else if len(args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchjson [-o out.json] [bench-output-file]")
		os.Exit(2)
	}

	results, err := loadResults(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading input: %v\n", err)
		os.Exit(1)
	}
	if results == nil {
		results = []benchResult{} // render [] rather than null
	}

	if *comparePath != "" {
		f, err := os.Open(*comparePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		old, err := loadResults(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: reading baseline: %v\n", err)
			os.Exit(1)
		}
		report := compareReport(old, results)
		if *outPath == "" {
			os.Stdout.WriteString(report)
			return
		}
		if err := os.WriteFile(*outPath, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')

	if *outPath == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
