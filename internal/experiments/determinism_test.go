package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"searchmem/internal/obs"
)

// goldenOutput holds the FNV-1a digest of each experiment's rendered
// section at seed 42, Fast() scale, recorded on linux/amd64 before the
// single-pass multi-hierarchy sweep driver was retired. Other architectures may
// fuse multiply-adds, so the digests are checked on amd64 only. A section
// depends on the experiments run before it in the same Context (they share
// memoized recordings of a stateful runner), so the -short id list has its
// own digests; the race-mode list is a prefix of the full one.
var goldenOutput = map[string]uint64{
	"table1":   0xa17331210d4ccb19,
	"fig2a":    0x9bce0727ca12833c,
	"fig6b":    0x46b3ed5d7403b126,
	"fig8a":    0xead7e0f84717b6d0,
	"fig13":    0x971dfa8c5758fbad,
	"degraded": 0x4a7c3261c513b6fb,
	"figT1":    0x0cb2551b775c7669,
	"figT2":    0x1592bfdfcdc4dc51,
	"figP1":    0x995dfa5d7ba43e38,
	"figP2":    0xad50b7c5895a1387,
	"figF1":    0x13cbb1bf9cc9c05a,
	"figF2":    0x1930b21c7511c603,
}

var goldenOutputShort = map[string]uint64{
	"table1": 0xa17331210d4ccb19,
	"fig13":  0xac1fb42b2eb56211,
	"figP2":  0x534bdfe42c426208,
}

// TestSameSeedByteIdenticalOutput is the end-to-end property the searchlint
// analyzers exist to protect: two experiment runs with the same seed must
// render byte-identical tables — the exact stream cmd/searchsim prints —
// whether the sweep engine runs serial or parallel (DESIGN.md §10).
// Each run uses a fresh Context so nothing is shared but the seed. The
// serial render must also match the recorded goldenOutput digests.
func TestSameSeedByteIdenticalOutput(t *testing.T) {
	// A cross-section of the pipeline: measured workload characterization
	// (table1), MPKI curves (fig2a), the L4 headline (fig6b), the
	// associativity sweep over the shared leaf recording (fig8a), the SMT
	// model (fig13), the fault-injected serving tier (degraded), the
	// tiered-memory sweeps (figT1/figT2), whose DRAM bank state and
	// page-migration engine must replay identically under the parallel
	// engine, the policy/predictor sweeps (figP1/figP2), whose seeded
	// BRRIP insertion and predictor tables must do the same, and the
	// fleet-scale serving sweeps (figF1/figF2), whose open-loop event
	// engine and shared metrics registry must render identically however
	// the points are scheduled.
	ids := []string{"table1", "fig2a", "fig6b", "fig8a", "fig13", "degraded", "figT1", "figT2", "figP1", "figP2", "figF1", "figF2"}
	golden := goldenOutput
	if testing.Short() {
		ids = []string{"table1", "fig13", "figP2"}
		golden = goldenOutputShort
	} else if raceDetectorOn {
		// The tier, policy, and fleet sweeps push this package past the
		// default race-mode time budget (the seed id list alone is ~8 min
		// under -race). Byte-identity does not depend on instrumentation,
		// and the sweep engines' race coverage lives in the tier tests and
		// TestSharingContextsConcurrent.
		ids = ids[:len(ids)-6]
	}

	// render returns each experiment's section as cmd/searchsim prints it.
	render := func(parallel bool) []string {
		opts := Fast()
		opts.Seed = 42
		opts.Parallel = parallel
		ctx := NewContext(opts)
		sections := make([]string, len(ids))
		for i, id := range ids {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			res, err := e.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			// Mirror cmd/searchsim's output framing.
			sections[i] = fmt.Sprintf("=== %s (%s) — %s\n%s\n", e.ID, e.PaperRef, e.Title, res.Render())
		}
		return sections
	}

	sections := render(false)
	if runtime.GOARCH == "amd64" {
		for i, id := range ids {
			h := fnv.New64a()
			h.Write([]byte(sections[i]))
			if got := h.Sum64(); got != golden[id] {
				t.Errorf("%s: output digest %#x, want %#x", id, got, golden[id])
			}
		}
	}
	serial := strings.Join(sections, "")
	for _, r := range []struct{ name, got string }{
		{"parallel", strings.Join(render(true), "")},
		{"parallel repeat", strings.Join(render(true), "")},
	} {
		if r.got == serial {
			continue
		}
		// Pinpoint the first divergence for the report.
		a, b := strings.Split(serial, "\n"), strings.Split(r.got, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("%s run diverges from serial at line %d:\n serial: %q\n %s: %q", r.name, i+1, a[i], r.name, b[i])
			}
		}
		t.Fatalf("%s run diverges from serial in length: %d vs %d lines", r.name, len(a), len(b))
	}
}

// TestSameSeedByteIdenticalExports extends the determinism contract to the
// observability exports (DESIGN.md §9): two same-seed fleetprof runs with a
// tracer and metrics registry attached must render the same table AND write
// byte-identical Chrome-trace JSON and metrics-snapshot JSON — the exact
// files cmd/searchsim -trace/-metrics produces.
func TestSameSeedByteIdenticalExports(t *testing.T) {
	if testing.Short() {
		t.Skip("fleetprof measurement is slow in -short mode")
	}
	run := func() (render, traceJSON, metricsJSON string) {
		opts := Fast()
		opts.Seed = 42
		opts.Tracer = obs.NewTracer()
		opts.Metrics = obs.NewRegistry()
		ctx := NewContext(opts)
		e, ok := ByID("fleetprof")
		if !ok {
			t.Fatal("fleetprof not registered")
		}
		res, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("fleetprof: %v", err)
		}
		var tb, mb strings.Builder
		if err := obs.WriteChromeTrace(&tb, opts.Tracer.Take()); err != nil {
			t.Fatalf("trace export: %v", err)
		}
		if err := opts.Metrics.Snapshot().WriteJSON(&mb); err != nil {
			t.Fatalf("metrics export: %v", err)
		}
		return res.Render(), tb.String(), mb.String()
	}
	r1, t1, m1 := run()
	r2, t2, m2 := run()
	if r1 != r2 {
		t.Error("same-seed fleetprof runs rendered different tables")
	}
	if t1 != t2 {
		t.Error("same-seed fleetprof runs exported different Chrome-trace JSON")
	}
	if m1 != m2 {
		t.Error("same-seed fleetprof runs exported different metrics JSON")
	}
	if !strings.Contains(t1, `"name":"access-stream"`) {
		t.Error("trace export missing profiler access-stream spans")
	}
	if !strings.Contains(m1, "fleetprof_topdown_err_pp") {
		t.Error("metrics export missing fleetprof gauges")
	}
}
