package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkSweepFig6b/parallel-8   \t       2\t 617283940 ns/op\t  128 B/op\t       3 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if r.Name != "BenchmarkSweepFig6b/parallel-8" || r.Iterations != 2 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Metrics["ns/op"] != 617283940 || r.Metrics["B/op"] != 128 || r.Metrics["allocs/op"] != 3 {
		t.Fatalf("metrics %+v", r.Metrics)
	}

	// Custom ReportMetric units survive.
	r, ok = parseBenchLine("BenchmarkAblationReplacementLRU-4  10  99 ns/op  0.8312 L3-hit-rate")
	if !ok || r.Metrics["L3-hit-rate"] != 0.8312 {
		t.Fatalf("custom metric: ok=%v %+v", ok, r.Metrics)
	}

	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tsearchmem\t12.3s",
		"BenchmarkBroken notanumber 5 ns/op",
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q misparsed as a benchmark", line)
		}
	}
}

func TestLoadResultsAutoDetect(t *testing.T) {
	text := "BenchmarkHierarchyAccess/batched-1 \t 100\t 40.26 ns/op\nPASS\n"
	fromText, err := loadResults(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	jsonIn := `[{"name":"BenchmarkHierarchyAccess/batched-1","iterations":100,"metrics":{"ns/op":40.26}}]`
	fromJSON, err := loadResults(strings.NewReader(jsonIn))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range [][]benchResult{fromText, fromJSON} {
		if len(res) != 1 || res[0].Name != "BenchmarkHierarchyAccess/batched-1" || res[0].Metrics["ns/op"] != 40.26 {
			t.Fatalf("parsed %+v", res)
		}
	}

	// A '[' that is not valid JSON falls back to the text parser.
	res, err := loadResults(strings.NewReader("[broken\nBenchmarkX-1 \t 2\t 5 ns/op\n"))
	if err != nil || len(res) != 1 || res[0].Name != "BenchmarkX-1" {
		t.Fatalf("fallback parse: %v %+v", err, res)
	}
}

func TestCompareReport(t *testing.T) {
	old := []benchResult{
		{Name: "BenchmarkA-1", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkGone-1", Metrics: map[string]float64{"ns/op": 7}},
	}
	cur := []benchResult{
		{Name: "BenchmarkA-1", Metrics: map[string]float64{"ns/op": 50}},
		{Name: "BenchmarkNew-1", Metrics: map[string]float64{"ns/op": 9}},
	}
	got := compareReport(old, cur)
	for _, want := range []string{
		"BenchmarkA-1",
		"100.00",
		"50.00",
		"-50.0%",
		"2.00x",
		"only in new: BenchmarkNew-1",
		"only in old: BenchmarkGone-1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// Same input twice: byte-identical report (no map-order dependence).
	if again := compareReport(old, cur); again != got {
		t.Error("compareReport is not deterministic")
	}
}

// TestCompareIgnoresGOMAXPROCSSuffix matches a suffix-free baseline (as
// written from a -cpu 1 run) against a run whose names carry go test's -4
// suffix.
func TestCompareIgnoresGOMAXPROCSSuffix(t *testing.T) {
	old := []benchResult{
		{Name: "BenchmarkHierarchyAccess/batched", Metrics: map[string]float64{"ns/op": 60}},
		{Name: "BenchmarkHierarchyAccess/inclusive-23core", Metrics: map[string]float64{"ns/op": 62}},
		{Name: "BenchmarkRunLoadEngine/heap/1000", Metrics: map[string]float64{"ns/op": 8}},
	}
	cur := []benchResult{
		{Name: "BenchmarkHierarchyAccess/batched-4", Metrics: map[string]float64{"ns/op": 30}},
		{Name: "BenchmarkHierarchyAccess/inclusive-23core-4", Metrics: map[string]float64{"ns/op": 62}},
		{Name: "BenchmarkRunLoadEngine/heap/1000-4", Metrics: map[string]float64{"ns/op": 4}},
	}
	got := compareReport(old, cur)
	if strings.Contains(got, "only in") {
		t.Fatalf("suffixed names left unmatched:\n%s", got)
	}
	for _, want := range []string{"-50.0%", "+0.0%", "2.00x"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	for name, want := range map[string]string{
		"BenchmarkA-4":          "BenchmarkA",
		"BenchmarkA/b-16":       "BenchmarkA/b",
		"BenchmarkA/b":          "BenchmarkA/b",
		"BenchmarkA/deep-off":   "BenchmarkA/deep-off",
		"BenchmarkA/heap/1000":  "BenchmarkA/heap/1000",
		"BenchmarkA/trailing-":  "BenchmarkA/trailing-",
		"BenchmarkA/x-23core-4": "BenchmarkA/x-23core",
	} {
		if got := benchKey(name); got != want {
			t.Errorf("benchKey(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestParseStream(t *testing.T) {
	in := "goos: linux\n" +
		"BenchmarkSweepFig13/serial-4 \t 1\t 5000000 ns/op\n" +
		"BenchmarkSweepFig13/parallel-4 \t 1\t 2000000 ns/op\n" +
		"PASS\n"
	res, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Name != "BenchmarkSweepFig13/serial-4" || res[1].Metrics["ns/op"] != 2000000 {
		t.Fatalf("parsed %+v", res)
	}
}
