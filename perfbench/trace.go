package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"searchmem/internal/experiments"
)

// epoch anchors the host clock; now reads the monotonic clock against it.
var epoch = time.Now() //lint:ignore walltime the benchmark measures host time; it never feeds the simulation

// now returns host nanoseconds since epoch.
func now() int64 {
	return int64(time.Since(epoch)) //lint:ignore walltime the benchmark measures host time; it never feeds the simulation
}

// secondsSince returns host seconds elapsed since t0 (a now reading).
func secondsSince(t0 int64) float64 { return float64(now()-t0) / 1e9 }

// clockOverhead returns the host ns an empty timed window reads: the
// median over back-to-back clock reads. A sampled fine-grained call is
// charged its window minus this.
func clockOverhead() int64 {
	d := make([]float64, 1001)
	for i := range d {
		t0 := now()
		d[i] = float64(now() - t0)
	}
	return int64(median(d))
}

// layer identifies one timed boundary between the benchmark and the
// simulator.
type layer int

const (
	lSearchBuild layer = iota // workload.SearchWorkload.Build
	lRecord                   // workload.Replayer.Record
	lReplay                   // workload.Replayer.Run, sinks included
	lCache                    // cache.Hierarchy.AccessBatch, memory sink included
	lMem                      // cache.MemSink calls into *mem.System
	lBranch                   // cpu branch-predictor calls
	lReduce                   // Eq. 1 reduce through model and the core model
	lStackDist                // cache.StackDist pass
	lServing                  // serving.RunScenario / serving.RunLoad
	lLeaf                     // leaf serving.Executor calls
	numLayers
)

// sampleEvery is the sampling period of fine-grained layers: one call in
// sampleEvery is timed, which bounds the tracing overhead.
const sampleEvery = 16

// meter accumulates one layer's calls, work units and host time.
type meter struct {
	calls, units int64
	timed, ns    int64
	// clockNS is the clock overhead subtracted from each timed call,
	// refreshed at the start of every traced pass.
	clockNS int64
}

// sample counts one fine-grained call and reports whether to time it.
func (m *meter) sample() bool {
	m.calls++
	return m.calls%sampleEvery == 0
}

// addSample records a timed fine-grained call that took dt host ns.
func (m *meter) addSample(dt int64) {
	m.timed++
	m.ns += max(dt-m.clockNS, 0)
}

// timeSince records a timed call that started at t0.
func (m *meter) timeSince(t0 int64) { m.addSample(now() - t0) }

// seconds estimates the layer's total host seconds from its timed calls.
func (m *meter) seconds() float64 {
	if m.timed == 0 {
		return 0
	}
	return float64(m.ns) / float64(m.timed) * float64(m.calls) / 1e9
}

// counts are the simulated statistics the traced passes observed, summed
// over traced passes. They repeat exactly for a seed.
type counts struct {
	builds, shardBytes, heapBytes      int64
	recordedAccesses, recordedBranches int64
	l1Misses, l2Misses, l3Misses       int64
	l4Hits, memReads, memWrites        int64
	probesPerformed, probesBaseline    int64
	stackDistAccesses                  int64
	sinkReads, sinkWrites              int64
	rowHits, rowMisses, farReads       int64
	branches, mispredicts              int64
	events, queries, cacheHits         int64
	partials, peakInflight             int64
	p99ms                              []float64
	recordings, recordedBytes          int64
	suiteRecordedAccesses              int64
}

// span is one timed interval at a layer boundary.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 at the top.
	Parent int `json:"parent"`
}

// tracer collects the traced passes of one run. A nil *tracer is an
// untraced pass: every method is a no-op.
type tracer struct {
	passes int
	m      [numLayers]meter
	c      counts
	// expNS holds experiments.Experiment.Run host ns by registry index.
	expNS []int64
	spans []span
	open  []int
}

func newTracer() *tracer {
	return &tracer{expNS: make([]int64, len(experiments.IDs()))}
}

// startPass counts a traced pass and measures the clock overhead it will
// subtract.
func (t *tracer) startPass() {
	t.passes++
	c := clockOverhead()
	for i := range t.m {
		t.m[i].clockNS = c
	}
}

// begin opens a span named name inside the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNS: now(), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i and returns its duration in host ns.
func (t *tracer) end(i int) int64 {
	if t == nil || i < 0 {
		return 0
	}
	t.spans[i].EndNS = now()
	// Pop i and any span a recovered panic left open inside it.
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == i {
			t.open = t.open[:k]
			break
		}
	}
	return t.spans[i].EndNS - t.spans[i].StartNS
}

// timed runs f inside a span of layer l, charging its whole duration.
func (t *tracer) timed(l layer, name string, f func()) {
	if t == nil {
		f()
		return
	}
	sp := t.begin(name)
	f()
	m := &t.m[l]
	m.calls++
	m.timed++
	m.ns += t.end(sp)
}

// perPass divides a summed count by the number of traced passes.
func (t *tracer) perPass(v int64) float64 { return float64(v) / float64(max(t.passes, 1)) }

// secs returns layer l's host seconds per traced pass.
func (t *tracer) secs(l layer) float64 { return t.m[l].seconds() / float64(max(t.passes, 1)) }

// ledgerRow is one layer's self time and work per traced pass.
type ledgerRow struct {
	name  string
	self  float64 // host seconds
	units float64
	unit  string
}

// rows returns the ledger: every layer's self time (its own time minus the
// time of the layers it calls) per traced pass.
func (t *tracer) rows() []ledgerRow {
	cacheSelf := t.secs(lCache) - t.secs(lMem)
	replaySelf := t.secs(lReplay) - t.secs(lCache) - t.secs(lBranch)
	rows := []ledgerRow{
		{"search.build", t.secs(lSearchBuild), t.perPass(t.c.builds), "build"},
		{"workload.record", t.secs(lRecord), t.perPass(t.c.recordedAccesses), "access"},
		{"trace.replay", replaySelf, t.perPass(t.m[lCache].units), "access"},
		{"cache.access", cacheSelf, t.perPass(t.m[lCache].units), "access"},
		{"mem", t.secs(lMem), t.perPass(t.m[lMem].calls), "txn"},
		{"cpu.branch", t.secs(lBranch), t.perPass(t.m[lBranch].calls), "branch"},
		{"model.reduce", t.secs(lReduce), t.perPass(t.m[lReduce].calls), "reduce"},
		{"cache.stackdist", t.secs(lStackDist), t.perPass(t.c.stackDistAccesses), "access"},
		{"serving.engine", t.secs(lServing) - t.secs(lLeaf), t.perPass(t.c.events), "event"},
		{"serving.leaf", t.secs(lLeaf), t.perPass(t.m[lLeaf].calls), "call"},
	}
	for i, id := range experiments.IDs() {
		if t.expNS[i] > 0 {
			rows = append(rows, ledgerRow{"experiments." + id, t.perPass(t.expNS[i]) / 1e9, 1, "run"})
		}
	}
	return rows
}

// ledger prints each layer's self time, count and ns per unit beside the
// traced wall time, with the unexplained remainder.
func (t *tracer) ledger(w io.Writer, workload string, wall float64) {
	fmt.Fprintf(w, "ledger %s (per traced pass, %d passes): wall_s %.4f\n", workload, t.passes, wall)
	fmt.Fprintf(w, "  %-22s %10s %7s %14s %12s\n", "layer", "self_s", "share", "count", "ns/unit")
	sum := 0.0
	for _, r := range t.rows() {
		if r.self == 0 && r.units == 0 {
			continue
		}
		sum += r.self
		nsPer := 0.0
		if r.units > 0 {
			nsPer = r.self * 1e9 / r.units
		}
		fmt.Fprintf(w, "  %-22s %10.4f %6.1f%% %14.0f %9.1f/%s\n", r.name, r.self, 100*r.self/wall, r.units, nsPer, r.unit)
	}
	fmt.Fprintf(w, "  %-22s %10.4f %6.1f%%\n", "unexplained", wall-sum, 100*(wall-sum)/wall)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics returns every per-layer metric of BENCHMARK.json, per traced
// pass. wall and untracedWall are the traced and untraced median pass
// times.
func (t *tracer) metrics(wall, untracedWall float64) map[string]metric {
	c := &t.c
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	for i, id := range experiments.IDs() {
		put("experiments."+id+".run_s", t.perPass(t.expNS[i])/1e9, "s")
	}
	put("experiments.recordings", t.perPass(c.recordings), "count")
	put("experiments.recorded_accesses", t.perPass(c.suiteRecordedAccesses), "count")
	put("experiments.recorded_bytes", t.perPass(c.recordedBytes), "B")

	put("search.build_s", t.secs(lSearchBuild), "s")
	put("search.builds", t.perPass(c.builds), "count")
	put("search.shard_bytes", t.perPass(c.shardBytes), "B")
	put("search.heap_bytes", t.perPass(c.heapBytes), "B")

	put("workload.record_s", t.secs(lRecord), "s")
	put("workload.recorded_accesses", t.perPass(c.recordedAccesses), "count")
	put("workload.recorded_branches", t.perPass(c.recordedBranches), "count")
	put("workload.record_ns_per_access", ratio(t.secs(lRecord)*1e9, t.perPass(c.recordedAccesses)), "ns")

	replayed := t.perPass(t.m[lCache].units)
	replaySelf := t.secs(lReplay) - t.secs(lCache) - t.secs(lBranch)
	put("trace.replay_s", replaySelf, "s")
	put("trace.batches", t.perPass(t.m[lCache].calls), "count")
	put("trace.replayed_accesses", replayed, "count")
	put("trace.ns_per_access", ratio(replaySelf*1e9, replayed), "ns")

	cacheSelf := t.secs(lCache) - t.secs(lMem)
	put("cache.access_s", cacheSelf, "s")
	put("cache.accesses", replayed, "count")
	put("cache.ns_per_access", ratio(cacheSelf*1e9, replayed), "ns")
	put("cache.l1_misses", t.perPass(c.l1Misses), "count")
	put("cache.l2_misses", t.perPass(c.l2Misses), "count")
	put("cache.l3_misses", t.perPass(c.l3Misses), "count")
	put("cache.l4_hits", t.perPass(c.l4Hits), "count")
	put("cache.mem_reads", t.perPass(c.memReads), "count")
	put("cache.mem_writes", t.perPass(c.memWrites), "count")
	skip := 0.0
	if c.probesBaseline > 0 {
		skip = 1 - float64(c.probesPerformed)/float64(c.probesBaseline)
	}
	put("cache.probe_skip_rate", skip, "ratio")
	put("cache.stackdist_s", t.secs(lStackDist), "s")
	put("cache.stackdist_accesses", t.perPass(c.stackDistAccesses), "count")

	txns := t.perPass(t.m[lMem].calls)
	put("mem.busy_s", t.secs(lMem), "s")
	put("mem.reads", t.perPass(c.sinkReads), "count")
	put("mem.writes", t.perPass(c.sinkWrites), "count")
	put("mem.ns_per_txn", ratio(t.secs(lMem)*1e9, txns), "ns")
	put("mem.row_hit_rate", ratio(float64(c.rowHits), float64(c.rowHits+c.rowMisses)), "ratio")
	put("mem.far_read_frac", ratio(float64(c.farReads), float64(c.sinkReads)), "ratio")

	put("cpu.branch_s", t.secs(lBranch), "s")
	put("cpu.branches", t.perPass(c.branches), "count")
	put("cpu.mispredict_rate", ratio(float64(c.mispredicts), float64(c.branches)), "ratio")
	put("model.reduce_s", t.secs(lReduce), "s")

	put("serving.run_s", t.secs(lServing), "s")
	put("serving.leaf_s", t.secs(lLeaf), "s")
	put("serving.engine_s", t.secs(lServing)-t.secs(lLeaf), "s")
	put("serving.events", t.perPass(c.events), "count")
	put("serving.queries", t.perPass(c.queries), "count")
	put("serving.leaf_calls", t.perPass(t.m[lLeaf].calls), "count")
	put("serving.ns_per_event", ratio(t.secs(lServing)*1e9, t.perPass(c.events)), "ns")
	put("serving.cache_hit_rate", ratio(float64(c.cacheHits), float64(c.queries)), "ratio")
	put("serving.partial_frac", ratio(float64(c.partials), float64(c.queries)), "ratio")
	put("serving.p99_ms", median(c.p99ms), "ms")
	put("serving.peak_inflight", float64(c.peakInflight), "count")

	explained := 0.0
	for _, r := range t.rows() {
		explained += r.self
	}
	put("bench.trace_overhead_frac", ratio(wall, untracedWall)-1, "ratio")
	put("bench.unexplained_frac", ratio(wall-explained, wall), "ratio")
	return out
}

// writeSpans writes every recorded span as JSON.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
