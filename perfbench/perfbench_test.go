package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sync"
	"testing"
)

// runs memoizes tiny runs, keyed by workload, seed and trace, so the tests
// share them.
var runs sync.Map

// tinyRun runs one pass of a tiny workload (two with tracing: one
// untraced, one traced).
func tinyRun(t *testing.T, workload string, seed uint64, trace bool) runResult {
	t.Helper()
	key := fmt.Sprint(workload, seed, trace)
	if r, ok := runs.Load(key); ok {
		return r.(runResult)
	}
	cfg := config{workload: workload, seed: seed, seconds: 1e-3, trace: trace, tiny: true}
	res, err := run(&cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.out.Failed != 0 || !res.out.Correct {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed", workload, seed, trace, res.out.Failed, res.out.Attempted)
	}
	runs.Store(key, res)
	return res
}

// TestTimingWrappersChangeNoStatistic compares an untraced run with a
// traced one, whose replays go through the timing sinks, the timed memory
// sink and the timed leaf executors: every simulated output must match.
// The traced run also checks its traced pass against its untraced pass.
func TestTimingWrappersChangeNoStatistic(t *testing.T) {
	for _, wl := range workloads {
		w := wl.name
		t.Run(w, func(t *testing.T) {
			plain, traced := tinyRun(t, w, 7, false), tinyRun(t, w, 7, true)
			for _, name := range plain.ops {
				if plain.digests[name] != traced.digests[name] {
					t.Errorf("%s: untraced digest %s, traced %s", name, plain.digests[name], traced.digests[name])
				}
			}
		})
	}
}

// TestRepeatedRunsGiveEqualDigests runs each workload twice in fresh
// passes.
func TestRepeatedRunsGiveEqualDigests(t *testing.T) {
	for _, wl := range workloads {
		w := wl.name
		t.Run(w, func(t *testing.T) {
			a := tinyRun(t, w, 7, false)
			cfg := config{workload: w, seed: 7, seconds: 1e-3, tiny: true}
			b, err := run(&cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.ops) == 0 || len(a.ops) != len(b.ops) {
				t.Fatalf("ops %v vs %v", a.ops, b.ops)
			}
			for _, name := range a.ops {
				if a.digests[name] != b.digests[name] {
					t.Errorf("%s: digest %s, then %s", name, a.digests[name], b.digests[name])
				}
			}
		})
	}
}

// TestSeedReachesEveryWorkload checks that every simulated operation's
// output depends on the seed. Cross-checks only report agreement.
func TestSeedReachesEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		w := wl.name
		t.Run(w, func(t *testing.T) {
			a, b := tinyRun(t, w, 7, false), tinyRun(t, w, 8, false)
			for _, name := range a.ops {
				if a.digests[name] == "ok" {
					continue
				}
				if a.digests[name] == b.digests[name] {
					t.Errorf("%s: seeds 7 and 8 give the same output %s", name, a.digests[name])
				}
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestPrintedNamesMatchBenchmarkJSON checks that the workloads are the ones
// BENCHMARK.json lists, and that each run prints exactly the metrics it
// declares, with their units and well-formed names.
func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, wl := range workloads {
		w := wl.name
		for _, trace := range []bool{false, true} {
			declared := bj.EndToEnd
			if trace {
				declared = bj.PerLayer
			}
			printed := tinyRun(t, w, 7, trace).out.Metrics
			if len(printed) != len(declared) {
				t.Errorf("%s trace %v: printed %d metrics, BENCHMARK.json declares %d", w, trace, len(printed), len(declared))
			}
			for _, m := range declared {
				got, ok := printed[m.Name]
				switch {
				case !valid.MatchString(m.Name):
					t.Errorf("malformed metric name %q", m.Name)
				case !ok:
					t.Errorf("%s trace %v: %s not printed", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %v: %s unit %q, BENCHMARK.json %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
