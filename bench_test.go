package searchmem

// The benchmark harness regenerates every table and figure of the paper
// (one Benchmark per experiment id), measures the substrates themselves,
// and runs the ablation studies called out in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks share one full-scale context (workload builds and
// hit-rate curves are cached), so the first benchmark to run pays the build
// cost. Custom metrics carry the reproduced headline numbers.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/experiments"
	"searchmem/internal/mem"
	"searchmem/internal/obs"
	"searchmem/internal/platform"
	"searchmem/internal/serving"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
)

// benchContext returns the shared full-scale experiment context (-short
// drops to Fast scale so CI can emit the sweep artifact cheaply).
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		opts := experiments.Full()
		if testing.Short() {
			opts = experiments.Fast()
		}
		benchCtx = experiments.NewContext(opts)
	})
	return benchCtx
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	ctx := benchContext(b)
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig2a(b *testing.B)  { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)  { benchExperiment(b, "fig2b") }
func BenchmarkFig2c(b *testing.B)  { benchExperiment(b, "fig2c") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6a(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { benchExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B)  { benchExperiment(b, "fig6c") }
func BenchmarkFig7a(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b") }
func BenchmarkFig8a(b *testing.B)  { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { benchExperiment(b, "fig8b") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFigT1(b *testing.B)  { benchExperiment(b, "figT1") }
func BenchmarkFigT2(b *testing.B)  { benchExperiment(b, "figT2") }

// --- sweep-engine before/after benchmarks (DESIGN.md §10) ---

// benchSweep measures one capacity-sweep experiment under the serial and
// parallel engines. A warm run first populates the shared workload builds
// and trace recordings, then each iteration gets a Sharing context (fresh
// derived-curve caches, shared recordings), so the serial/parallel ratio
// isolates the sweep fan-out rather than one-time recording cost. Both
// modes render byte-identical output (TestSameSeedByteIdenticalOutput).
func benchSweep(b *testing.B, id string) {
	base := benchContext(b)
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	if _, err := e.Run(base.Sharing(base.Opts)); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name     string
		parallel bool
	}{
		{"serial", false},
		{"parallel", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := base.Opts
			opts.Parallel = mode.parallel
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(base.Sharing(opts)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSweepFig6b(b *testing.B) { benchSweep(b, "fig6b") }
func BenchmarkSweepFig9(b *testing.B)  { benchSweep(b, "fig9") }
func BenchmarkSweepFig13(b *testing.B) { benchSweep(b, "fig13") }

// --- substrate microbenchmarks ---

// leafTrace materializes a reusable access trace from a shrunken leaf.
var (
	leafTraceOnce sync.Once
	leafTrace     []trace.Access
)

func benchLeafTrace(b testing.TB) []trace.Access {
	b.Helper()
	leafTraceOnce.Do(func() {
		r := workload.S1Leaf(16).Build()
		r.Run(2, 1_500_000, 1, workload.Sinks{Access: func(a trace.Access) {
			leafTrace = append(leafTrace, a)
		}})
	})
	return leafTrace
}

// smtTrace memoizes a 16-thread recording of the capacity-sweep leaf: the
// threads run two per core, so they occupy 8 cores of a larger hierarchy.
var (
	smtTraceOnce sync.Once
	smtTrace     []trace.Access
)

func benchSMTTrace(b testing.TB) []trace.Access {
	b.Helper()
	smtTraceOnce.Do(func() {
		r := workload.S1LeafSweep(8).Build()
		r.Run(16, 1_500_000, 1, workload.Sinks{Access: func(a trace.Access) {
			smtTrace = append(smtTrace, a)
		}})
	})
	return smtTrace
}

// inclusive23Config is the sweep-scale PLT1 design with 23 two-way SMT
// cores and a 23 MiB (paper units) inclusive L3: every L3 eviction
// back-invalidates the private caches, and most cores hold no lines.
func inclusive23Config() HierarchyConfig {
	plat := platform.PLT1().ScaleCaches(workload.SweepScale)
	return plat.HierarchyWithL3Size(23, 2, workload.SimUnits(23<<20))
}

// benchHierarchyConfig is the shared L1+L2+L3 configuration of the kernel
// microbenchmarks.
func benchHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		Cores: 2, ThreadsPerCore: 1,
		L1I: CacheConfig{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L1D: CacheConfig{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L2:  CacheConfig{Size: 256 << 10, BlockSize: 64, Assoc: 8},
		L3:  CacheConfig{Size: 4 << 20, BlockSize: 64, Assoc: 16},
	}
}

// BenchmarkHierarchyAccess measures replay throughput through L1+L2+L3
// (ns per simulated access): the scalar pre-batching hot loop (per-access
// trace.Stream dispatch + copy + Hierarchy.Access call chain) vs the
// batched kernel consuming zero-copy windows of the same memoized trace.
func BenchmarkHierarchyAccess(b *testing.B) {
	sh := trace.NewShared(benchLeafTrace(b))
	b.Run("scalar", func(b *testing.B) {
		h := NewHierarchy(benchHierarchyConfig())
		var s trace.Stream = sh.View()
		var a trace.Access
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !s.Next(&a) {
				s.(*trace.View).Rewind()
				s.Next(&a)
			}
			h.Access(a)
		}
	})
	b.Run("batched", func(b *testing.B) {
		benchBatched(b, sh, benchHierarchyConfig())
	})
	// The predictor-off/predictor-on pair prices the level predictor's
	// bookkeeping in the batched kernel on the deep (L4-backed) hierarchy
	// where prediction is motivated; the predictor run also reports its
	// steady probe-skip rate (the acceptance figure lives in
	// TestPredictorProbeSkipAcceptance).
	b.Run("deep-off", func(b *testing.B) {
		benchBatched(b, sh, predictorAcceptConfig())
	})
	b.Run("deep-predictor", func(b *testing.B) {
		cfg := predictorAcceptConfig()
		cfg.Predictor = &PredictorConfig{ConfThreshold: 1}
		// The published probe-skip rate comes from one cold replay of the
		// full trace — the regime TestPredictorProbeSkipAcceptance pins
		// (> 0.5) — measured outside the timed loop, which replays the
		// trace repeatedly and so would report the warm-cache steady state
		// instead.
		cold := NewHierarchy(cfg)
		cold.AccessBatch(benchLeafTrace(b), nil)
		skip := cold.PredictorStats().SkipRate()
		benchBatched(b, sh, cfg)
		b.ReportMetric(skip, "probe-skip-rate")
	})
	// The many-core inclusive design the capacity sweeps replay: 16
	// threads on 8 of 23 cores, so the cost of inclusive back-invalidation
	// shows next to the 2-core rows above.
	b.Run("inclusive-23core", func(b *testing.B) {
		benchBatched(b, trace.NewShared(benchSMTTrace(b)), inclusive23Config())
	})
}

// benchBatched drives the batched kernel over the shared trace for b.N
// accesses and returns the hierarchy for metric reporting.
func benchBatched(b *testing.B, sh *trace.Shared, cfg HierarchyConfig) *Hierarchy {
	h := NewHierarchy(cfg)
	b.ResetTimer()
	replayN(sh.View(), b.N, func(batch []trace.Access) { h.AccessBatch(batch, nil) })
	return h
}

// BenchmarkSharedReplay isolates the stream-decode phase: draining a
// memoized trace.Shared recording into a no-op consumer through the scalar
// Stream interface vs zero-copy NextBatch windows. The gap is pure
// per-access interface dispatch + copy.
func BenchmarkSharedReplay(b *testing.B) {
	sh := trace.NewShared(benchLeafTrace(b))
	var sink uint64
	b.Run("scalar", func(b *testing.B) {
		v := sh.View()
		var a trace.Access
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !v.Next(&a) {
				v.Rewind()
				v.Next(&a)
			}
			sink += a.Addr
		}
	})
	b.Run("batched", func(b *testing.B) {
		v := sh.View()
		b.ResetTimer()
		for done := 0; done < b.N; {
			batch := v.NextBatch()
			if len(batch) == 0 {
				v.Rewind()
				continue
			}
			if rem := b.N - done; len(batch) > rem {
				batch = batch[:rem]
			}
			for i := range batch {
				sink += batch[i].Addr
			}
			done += len(batch)
		}
	})
	_ = sink
}

// BenchmarkCompressedDecode measures the block-codec decode path against
// the flat BenchmarkSharedReplay baseline: draining a trace.Compressed
// recording (delta+varint blocks decoded into a reused window) into the
// same no-op consumer, from RAM-resident blocks and from a spill file. The
// acceptance bar for bounded-memory replay is batched decode within ~2x of
// the flat batched path.
func BenchmarkCompressedDecode(b *testing.B) {
	tr := benchLeafTrace(b)
	comp, err := trace.Compress(tr, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("compressed %d accesses to %d bytes (%.2f B/access, flat 16)",
		comp.Len(), comp.StoredBytes(), float64(comp.StoredBytes())/float64(comp.Len()))
	var sink uint64
	drainBatched := func(b *testing.B, v *trace.CompressedView) {
		b.ResetTimer()
		for done := 0; done < b.N; {
			batch := v.NextBatch()
			if len(batch) == 0 {
				if v.Err() != nil {
					b.Fatal(v.Err())
				}
				v.Rewind()
				continue
			}
			if rem := b.N - done; len(batch) > rem {
				batch = batch[:rem]
			}
			for i := range batch {
				sink += batch[i].Addr
			}
			done += len(batch)
		}
	}
	b.Run("scalar", func(b *testing.B) {
		v := comp.View()
		var a trace.Access
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !v.Next(&a) {
				v.Rewind()
				v.Next(&a)
			}
			sink += a.Addr
		}
	})
	b.Run("batched", func(b *testing.B) { drainBatched(b, comp.View()) })
	b.Run("spilled", func(b *testing.B) {
		f, err := os.CreateTemp(b.TempDir(), "bench-*.blk")
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		w := trace.NewBlockWriter(0, f)
		for _, a := range tr {
			if err := w.Add(a); err != nil {
				b.Fatal(err)
			}
		}
		sp, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		drainBatched(b, sp.View())
	})
	_ = sink
}

// benchReplayRunner is a cheap synthetic Runner for the Replayer transport
// benchmark: the recording cost is irrelevant (paid once, outside the
// timer); only the replay path is measured.
type benchReplayRunner struct{}

func (benchReplayRunner) Name() string        { return "bench-replay" }
func (benchReplayRunner) MemOverlap() float64 { return 0 }

func (benchReplayRunner) Run(threads int, budget int64, seed uint64, sk workload.Sinks) workload.Stats {
	n := int(budget)
	for i := 0; i < n; i++ {
		if sk.Access != nil {
			sk.Access(trace.Access{Addr: uint64(i)*64 + seed, Size: 8, Seg: trace.Heap, Thread: uint8(i % threads)})
		}
		if i%64 == 0 && sk.Branch != nil {
			sk.Branch(uint8(i%threads), uint64(i)*4, i%128 == 0)
		}
	}
	return workload.Stats{Instructions: budget * 4, Accesses: budget, Branches: budget / 64}
}

// BenchmarkReplayerReplay measures one full memoized replay through the
// Replayer — the transport the sweep engine drives — including cursor
// acquisition and batch splitting at branch positions. allocs/op is the
// headline number: steady-state replay allocates nothing (the Replayer
// keeps a single-slot cursor cache per recording, rewound on reuse; the
// hotalloc analyzer and the ZeroAlloc oracles pin this, DESIGN.md §13).
func BenchmarkReplayerReplay(b *testing.B) {
	const accesses = 200_000
	for _, tc := range []struct {
		name  string
		store *workload.StoreConfig
	}{
		{"flat", nil},
		{"compressed", &workload.StoreConfig{Compress: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rep := workload.NewReplayer(benchReplayRunner{})
			if tc.store != nil {
				rep.SetStore(*tc.store)
			}
			var sink uint64
			sinks := workload.Sinks{
				AccessBatch: func(batch []trace.Access) {
					for i := range batch {
						sink += batch[i].Addr
					}
				},
				Branch: func(t uint8, pc uint64, taken bool) { sink += pc },
			}
			rep.Run(2, accesses, 1, sinks) // record once, outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.Run(2, accesses, 1, sinks)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/accesses, "ns/access")
			_ = sink
		})
	}
}

// replayN feeds exactly n accesses of v, rewinding at its end, to consume
// in zero-copy windows.
func replayN(v *trace.View, n int, consume func([]trace.Access)) {
	for done := 0; done < n; {
		batch := v.NextBatch()
		if len(batch) == 0 {
			v.Rewind()
			continue
		}
		if rem := n - done; len(batch) > rem {
			batch = batch[:rem]
		}
		consume(batch)
		done += len(batch)
	}
}

// --- tiered main-memory kernel benchmarks (DESIGN.md §14) ---

// benchMemSystem drains the memoized leaf trace through one tiered memory
// system: ns/op is per simulated memory transaction, and allocs/op must be
// 0 in steady state (the //lint:hot contract on System.DrainBatch — the
// first pass outside the timer absorbs page-table growth).
func benchMemSystem(b *testing.B, far *mem.FarConfig) {
	tr := benchLeafTrace(b)
	sh := trace.NewShared(tr)
	sys := mem.NewSystem(mem.Config{Far: far})
	v := sh.View()
	sys.DrainBatch(v)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(tr) {
		v.Rewind()
		sys.DrainBatch(v)
	}
	b.StopTimer()
	st := sys.Snapshot()
	b.ReportMetric(st.RowHitRate(), "row-hit-rate")
	if far != nil {
		b.ReportMetric(st.FarReadFrac(), "far-read-frac")
	}
}

// BenchmarkMemSystemNear is the near-only DRAM bank/row-buffer model.
func BenchmarkMemSystemNear(b *testing.B) { benchMemSystem(b, nil) }

// BenchmarkMemSystemTieredStatic adds the far tier with first-touch
// placement (no migration traffic; NearPages is sized well below the leaf
// trace's page population so the far path is exercised).
func BenchmarkMemSystemTieredStatic(b *testing.B) {
	benchMemSystem(b, &mem.FarConfig{NearPages: 512, Policy: mem.PolicyStatic})
}

// BenchmarkMemSystemTieredFreq adds epoch rebalancing under the
// frequency-threshold policy (the placement engine's worst case).
func BenchmarkMemSystemTieredFreq(b *testing.B) {
	benchMemSystem(b, &mem.FarConfig{NearPages: 512, Policy: mem.PolicyFreqThreshold, EpochLen: 65536})
}

// BenchmarkStackDist measures the one-pass reuse profiler.
func BenchmarkStackDist(b *testing.B) {
	tr := benchLeafTrace(b)
	sd := NewStackDist(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Observe(tr[i%len(tr)])
	}
}

// BenchmarkEngineQuery measures end-to-end instrumented query execution.
func BenchmarkEngineQuery(b *testing.B) {
	space := NewSpace(func(Access) {})
	cfg := DefaultEngineConfig()
	cfg.Corpus.NumDocs = 20000
	cfg.Corpus.VocabSize = 30000
	eng := BuildEngine(cfg, space, nil)
	sess := eng.NewSession(0, nil)
	rng := stats.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Execute([]uint32{uint32(rng.Intn(30000)), uint32(rng.Intn(30000))})
	}
}

// BenchmarkTraceCodec measures trace serialization.
func BenchmarkTraceCodec(b *testing.B) {
	tr := benchLeafTrace(b)
	w, _ := trace.NewWriter(discard{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(tr[i%len(tr)]); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkGshare measures branch-predictor throughput.
func BenchmarkGshare(b *testing.B) {
	p := cpu.NewGshare(14)
	rng := stats.NewRNG(3)
	pcs := make([]uint64, 1024)
	outs := make([]bool, 1024)
	for i := range pcs {
		pcs[i] = rng.Uint64n(1 << 20)
		outs[i] = rng.Bool(0.7)
	}
	s := cpu.PredictorStats{P: p}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(cpu.Branch{PC: pcs[i%1024], Taken: outs[i%1024]})
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// ablationHitRate replays the leaf trace through an L3 variant and reports
// its hit rate.
func ablationHitRate(b *testing.B, mutate func(*cache.HierarchyConfig)) {
	tr := benchLeafTrace(b)
	cfg := cache.HierarchyConfig{
		Cores: 2, ThreadsPerCore: 1,
		L1I:         cache.Config{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L1D:         cache.Config{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L2:          cache.Config{Size: 256 << 10, BlockSize: 64, Assoc: 8},
		L3:          cache.Config{Size: 1 << 20, BlockSize: 64, Assoc: 16},
		L3Inclusive: true,
	}
	mutate(&cfg)
	b.ResetTimer()
	var hit float64
	for i := 0; i < b.N; i++ {
		h := cache.NewHierarchy(cfg)
		for _, a := range tr {
			h.Access(a)
		}
		hit = h.L3Stats().HitRate()
	}
	b.ReportMetric(hit, "L3-hit-rate")
}

// BenchmarkAblationReplacementLRU/FIFO/Random quantify the replacement
// policy choice (the paper's simulator uses LRU everywhere).
func BenchmarkAblationReplacementLRU(b *testing.B) {
	ablationHitRate(b, func(c *cache.HierarchyConfig) { c.L3.Policy = cache.LRU })
}

// BenchmarkAblationReplacementFIFO is the FIFO variant.
func BenchmarkAblationReplacementFIFO(b *testing.B) {
	ablationHitRate(b, func(c *cache.HierarchyConfig) { c.L3.Policy = cache.FIFO })
}

// BenchmarkAblationReplacementRandom is the random variant (stochastic
// policies require an explicit seed).
func BenchmarkAblationReplacementRandom(b *testing.B) {
	ablationHitRate(b, func(c *cache.HierarchyConfig) { c.L3.Policy, c.L3.Seed = cache.Random, 1 })
}

// BenchmarkAblationReplacementSRRIP/DRRIP extend the ablation to the RRIP
// zoo (DRRIP's set-dueling inherits BRRIP's seeded bimodal insertion).
func BenchmarkAblationReplacementSRRIP(b *testing.B) {
	ablationHitRate(b, func(c *cache.HierarchyConfig) { c.L3.Policy = cache.SRRIP })
}

// BenchmarkAblationReplacementDRRIP is the set-dueling variant.
func BenchmarkAblationReplacementDRRIP(b *testing.B) {
	ablationHitRate(b, func(c *cache.HierarchyConfig) { c.L3.Policy, c.L3.Seed = cache.DRRIP, 1 })
}

// BenchmarkAblationInclusiveL3 vs NonInclusive quantifies the inclusion
// back-invalidation cost the paper notes for PLT1.
func BenchmarkAblationInclusiveL3(b *testing.B) {
	ablationHitRate(b, func(c *cache.HierarchyConfig) { c.L3Inclusive = true })
}

// BenchmarkAblationNonInclusiveL3 is the non-inclusive variant.
func BenchmarkAblationNonInclusiveL3(b *testing.B) {
	ablationHitRate(b, func(c *cache.HierarchyConfig) { c.L3Inclusive = false })
}

// ablationL4 replays the trace with an L4 variant and reports the L4 hit
// rate and DRAM filter rate.
func ablationL4(b *testing.B, fillOnMiss bool, assoc int) {
	tr := benchLeafTrace(b)
	cfg := cache.HierarchyConfig{
		Cores: 2, ThreadsPerCore: 1,
		L1I:          cache.Config{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L1D:          cache.Config{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L2:           cache.Config{Size: 256 << 10, BlockSize: 64, Assoc: 8},
		L3:           cache.Config{Size: 512 << 10, BlockSize: 64, Assoc: 16},
		L4:           &cache.Config{Size: 8 << 20, BlockSize: 64, Assoc: assoc},
		L4FillOnMiss: fillOnMiss,
	}
	b.ResetTimer()
	var hit float64
	for i := 0; i < b.N; i++ {
		h := cache.NewHierarchy(cfg)
		for _, a := range tr {
			h.Access(a)
		}
		hit = h.L4Stats().HitRate()
	}
	b.ReportMetric(hit, "L4-hit-rate")
}

// BenchmarkAblationL4VictimFill is the paper's design: the L4 fills from L3
// evictions.
func BenchmarkAblationL4VictimFill(b *testing.B) { ablationL4(b, false, 1) }

// BenchmarkAblationL4FillOnMiss fills the L4 on memory fetches instead.
func BenchmarkAblationL4FillOnMiss(b *testing.B) { ablationL4(b, true, 1) }

// BenchmarkAblationL4DirectMapped vs FullyAssociative bound the conflict
// cost of the paper's direct-mapped choice (Figure 14 "Associative").
func BenchmarkAblationL4DirectMapped(b *testing.B) { ablationL4(b, false, 1) }

// BenchmarkAblationL4FullyAssociative is the fully-associative variant.
func BenchmarkAblationL4FullyAssociative(b *testing.B) { ablationL4(b, false, 0) }

// BenchmarkAblationL4LookupOverlap quantifies the parallel tag-lookup
// design through the AMAT model: serializing the lookup adds its penalty to
// every miss.
func BenchmarkAblationL4LookupOverlap(b *testing.B) {
	var parallel, serial float64
	for i := 0; i < b.N; i++ {
		parallel = AMATWithL4(0.6, 0.8, 14.4, 40, 65, 0)
		serial = AMATWithL4(0.6, 0.8, 14.4, 40, 65, 5)
	}
	b.ReportMetric(parallel, "AMAT-parallel-ns")
	b.ReportMetric(serial, "AMAT-serial-ns")
}

// --- serving tree and observability benchmarks ---

// benchCluster builds the serving tree the observability benchmarks drive:
// synthetic leaves, no fault injection, so per-query work is uniform.
func benchCluster(tracer *obs.Tracer) *serving.Cluster {
	cfg := serving.DefaultConfig()
	cfg.Leaves = 16
	cfg.Fanout = 4
	cfg.Name = "bench"
	cfg.Tracer = tracer
	// No cache-server tier: every iteration takes the full fan-out path.
	cfg.CacheSlots = 0
	return serving.NewCluster(cfg, nil)
}

// BenchmarkServingTree measures end-to-end query latency through the serving
// tree (frontend, cache probe, root fan-out, parents, leaves, merge) with
// tracing disabled.
func BenchmarkServingTree(b *testing.B) {
	c := benchCluster(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Serve(serving.Query{Terms: []uint32{uint32(i) % 1024, uint32(i) % 4096}})
	}
}

// BenchmarkTraceOverhead quantifies what per-query tracing costs. The
// "disabled" case is the zero-value path every untraced cluster takes (one
// nil check per query); "enabled" records and drains a full span tree per
// query.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		c := benchCluster(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Serve(serving.Query{Terms: []uint32{uint32(i) % 1024, uint32(i) % 4096}})
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tracer := obs.NewTracer()
		c := benchCluster(tracer)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Serve(serving.Query{Terms: []uint32{uint32(i) % 1024, uint32(i) % 4096}})
			// Drain so the tracer's buffer stays bounded across iterations.
			tracer.Take()
		}
	})
}

// branchStream materializes a reusable branch trace from the leaf workload.
var (
	branchOnce   sync.Once
	branchStream []cpu.Branch
)

func benchBranchStream(b *testing.B) []cpu.Branch {
	b.Helper()
	branchOnce.Do(func() {
		r := workload.S1Leaf(16).Build()
		r.Run(1, 600_000, 1, workload.Sinks{
			Branch: func(_ uint8, pc uint64, taken bool) {
				branchStream = append(branchStream, cpu.Branch{PC: pc, Taken: taken})
			},
		})
	})
	return branchStream
}

// ablationPredictor reports a predictor's mispredict rate on the leaf
// branch stream (the paper's branch-MPKI axis, Table I).
func ablationPredictor(b *testing.B, mk func() cpu.Predictor) {
	br := benchBranchStream(b)
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		s := cpu.PredictorStats{P: mk()}
		for _, x := range br {
			s.Observe(x)
		}
		rate = 1 - s.Accuracy()
	}
	b.ReportMetric(rate*100, "mispredict-%")
}

// BenchmarkAblationPredictorBimodal/Gshare/Tournament compare direction
// predictors on the search branch stream.
func BenchmarkAblationPredictorBimodal(b *testing.B) {
	ablationPredictor(b, func() cpu.Predictor { return cpu.NewBimodal(14) })
}

// BenchmarkAblationPredictorGshare is the gshare variant.
func BenchmarkAblationPredictorGshare(b *testing.B) {
	ablationPredictor(b, func() cpu.Predictor { return cpu.NewGshare(14) })
}

// BenchmarkAblationPredictorTournament is the tournament variant.
func BenchmarkAblationPredictorTournament(b *testing.B) {
	ablationPredictor(b, func() cpu.Predictor { return cpu.NewTournament(14) })
}

// --- fleet load-engine benchmarks (DESIGN.md §16) ---

// BenchmarkRunLoadEngine measures the closed-loop load driver (RunLoad,
// O(log n) per issued query on the pooled serve path) in events/sec. The
// sub-benchmarks keep their "heap/" prefix so BENCH_serve.json rows stay
// comparable across commits.
func BenchmarkRunLoadEngine(b *testing.B) {
	type size struct{ clients, qpc int }
	sizes := []size{{1000, 20}, {10_000, 5}, {100_000, 2}, {1_000_000, 1}}
	if testing.Short() {
		sizes = []size{{1000, 5}, {10_000, 2}, {50_000, 1}}
	}
	for _, s := range sizes {
		b.Run(fmt.Sprintf("heap/%d", s.clients), func(b *testing.B) {
			c := serving.NewCluster(serving.DefaultConfig(), nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serving.RunLoad(c, s.clients, s.qpc, 400, 1.1, 9)
			}
			queries := float64(s.clients) * float64(s.qpc) * float64(b.N)
			b.ReportMetric(queries/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkFleetMillionUsers drives the headline fleet scenario: a million
// modeled users (50k under -short) issuing open-loop against a diurnal rate
// curve with a flash crowd, on one cluster. The engine events/sec metric
// counts query issues, completion pops, and timeline actions.
func BenchmarkFleetMillionUsers(b *testing.B) {
	clients, durNS := 1_000_000, 2e9
	if testing.Short() {
		clients, durNS = 50_000, 5e8
	}
	cfg := serving.DefaultConfig()
	cfg.LeafCapacity = 400
	cfg.LeafDeadlineNS = 40e6
	cfg.HedgeDelayNS = 5e6
	sc := serving.Scenario{
		Clients:   clients,
		VocabSize: 3000,
		Skew:      0.9,
		Seed:      7,
		Arrival: &serving.RateCurve{
			BaseQPS:          20_000,
			DiurnalAmplitude: 0.25,
			DiurnalPeriodNS:  durNS / 2,
			Bursts:           []serving.Burst{{StartNS: 0.4 * durNS, EndNS: 0.5 * durNS, Factor: 2}},
		},
		DurationNS: durNS,
	}
	c := serving.NewCluster(cfg, nil)
	var events, served int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := serving.RunScenario(c, sc)
		events += fs.EventsProcessed
		served += fs.Served
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(served)/float64(b.N), "queries/run")
}
