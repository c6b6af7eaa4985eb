package workload

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/mem"
	"searchmem/internal/model"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// NoWarmup disables the warmup phase entirely when assigned to
// MeasureConfig.WarmupFraction. A plain 0 cannot express this — it is the
// "unset" sentinel selecting the default 0.25 — so cold-start measurements
// use this negative sentinel instead.
const NoWarmup = -1.0

// MeasureConfig describes one measurement run: a workload on a platform
// hierarchy with the paper's instrumentation attached (functional cache
// simulation + branch predictors + the calibrated core model).
type MeasureConfig struct {
	// Platform supplies cache shapes, latencies, and the core model.
	Platform platform.Platform
	// Cores and SMTWays shape the simulated hierarchy; Threads is the
	// number of workload threads run on it.
	Cores, SMTWays, Threads int
	// L3Ways, when non-zero, partitions the L3 CAT-style.
	L3Ways int
	// SplitL2 splits each core's unified L2 into I and D halves (§V).
	SplitL2 bool
	// L3Size, when non-zero, overrides the L3 capacity.
	L3Size int64
	// L4, when non-nil, adds a memory-side victim L4 of this capacity
	// (direct-mapped unless L4Assoc overrides).
	L4Size int64
	// L4Assoc is the L4 associativity (0 with L4Size set = direct-mapped
	// per the paper's design; use -1 for fully associative).
	L4Assoc int
	// L4HitNS and L4MissPenaltyNS are the L4 timing parameters (default
	// 40 ns / 0 ns baseline when L4Size is set).
	L4HitNS, L4MissPenaltyNS float64
	// Budget is the measured instruction budget; a quarter as much again
	// is run first as unrecorded warmup.
	Budget int64
	// Seed varies the input stream.
	Seed uint64
	// PredictorBits sizes the per-core gshare predictor (default 14).
	PredictorBits uint
	// Prefetchers, when non-nil, is invoked per core to attach hardware
	// prefetchers.
	Prefetchers func() []cpu.Prefetcher
	// WarmupFraction scales the warmup budget. The zero value selects the
	// default of 0.25; any negative value (use NoWarmup) disables warmup
	// entirely, so the measured phase starts from cold caches and includes
	// compulsory effects. Positive values are used as given (values above 1
	// warm with more instructions than the measured budget, e.g. the
	// calibration runs' 2.0).
	WarmupFraction float64
	// AccessObserver, when non-nil, sees every measured-phase access along
	// with the hierarchy level that served it (warmup is not observed, to
	// match the statistics reset). The obs sampling profiler attaches here.
	AccessObserver func(a trace.Access, lvl cache.HitLevel)
	// BranchObserver, when non-nil, sees every measured-phase branch and
	// whether it mispredicted.
	BranchObserver func(thread uint8, mispredict bool)
	// L1Policy, L2Policy, L3Policy, and L4Policy select the replacement
	// policy per level (the zero value, cache.LRU, keeps the platform
	// default). Stochastic policies (Random, BRRIP, DRRIP) need a non-zero
	// per-cache seed; buildHierarchy derives one deterministically from
	// Seed and a per-level salt, so repeat runs stay byte-identical.
	L1Policy, L2Policy, L3Policy, L4Policy cache.Policy
	// DeadBlock enables dead-block-aware insertion on every level running
	// an RRIP-family policy (it is a no-op for LRU/FIFO/Random levels).
	DeadBlock bool
	// Predictor, when non-nil, attaches a cache-level predictor to the
	// hierarchy. The config is copied; a zero Predictor.Seed is defaulted
	// from Seed so prediction tables hash deterministically per run.
	Predictor *cache.PredictorConfig
	// Mem, when non-nil, attaches a tiered main-memory model (internal/mem)
	// below the hierarchy: post-L4 traffic runs through its DRAM bank/row-
	// buffer near tier and optional far tier, Metrics.Mem carries its
	// snapshot, and the AMAT model uses its effective read latency in place
	// of Platform.MemLatencyNS. Each measurement builds its own mem.System
	// from this config (the config itself is never mutated).
	Mem *mem.Config
}

// Metrics is the measured outcome, aligned with Table I's rows and the
// inputs of §III-D's models.
type Metrics struct {
	// IPC is the modeled per-core, per-thread IPC.
	IPC float64
	// Breakdown is the Top-Down slot accounting (Figure 3).
	Breakdown cpu.Breakdown
	// BranchMPKI is mispredicted branches per kilo-instruction.
	BranchMPKI float64
	// L2InstrMPKI and L3LoadMPKI are the headline Table I metrics.
	L2InstrMPKI, L3LoadMPKI float64
	// Remaining per-level rates.
	L1IMPKI, L1DMPKI, L2DataMPKI, L3InstrMPKI float64
	// L3HitRate and L4HitRate are demand hit rates.
	L3HitRate, L4HitRate float64
	// AMATNS is the modeled post-L2 average access time.
	AMATNS float64
	// DRAMPerKI is main-memory transactions per kilo-instruction.
	DRAMPerKI float64
	// Level stats for per-segment analysis (Figure 6a).
	L1, L2, L3, L4 cache.AccessStats
	// MemReads and MemWrites are raw DRAM transaction counts.
	MemReads, MemWrites int64
	// Pred carries the cache-level predictor's counters when
	// MeasureConfig.Predictor was set (all zero otherwise).
	Pred cache.PredictorStats
	// Instructions measured; Run carries the workload-level counters.
	Instructions int64
	Run          Stats
	// Mem, when MeasureConfig.Mem was set, is the tiered memory system's
	// measured-phase snapshot (row-buffer behaviour, tier residency,
	// migration accounting).
	Mem *mem.Stats
}

// normalize applies MeasureConfig defaults in place (predictor sizing and
// the warmup sentinel resolution).
func (mc *MeasureConfig) normalize() {
	if mc.PredictorBits == 0 {
		mc.PredictorBits = 14
	}
	switch {
	case mc.WarmupFraction == 0:
		mc.WarmupFraction = 0.25 // unset: the default warmup
	case mc.WarmupFraction < 0:
		mc.WarmupFraction = 0 // NoWarmup: an explicit cold-start measurement
	}
}

// buildHierarchy constructs the simulated hierarchy described by mc,
// resolves the L4 timing parameters, and attaches the tiered memory model
// when one is configured (sys is nil otherwise).
func buildHierarchy(mc MeasureConfig) (h *cache.Hierarchy, sys *mem.System, l4Hit, l4Pen float64) {
	var hcfg cache.HierarchyConfig
	if mc.L3Size > 0 {
		hcfg = mc.Platform.HierarchyWithL3Size(mc.Cores, mc.SMTWays, mc.L3Size)
	} else {
		hcfg = mc.Platform.Hierarchy(mc.Cores, mc.SMTWays, mc.L3Ways)
	}
	hcfg.SplitL2 = mc.SplitL2
	l4Hit, l4Pen = mc.L4HitNS, mc.L4MissPenaltyNS
	if mc.L4Size > 0 {
		assoc := mc.L4Assoc
		if assoc == 0 {
			assoc = 1 // the paper's direct-mapped design
		}
		if assoc < 0 {
			assoc = 0 // fully associative sensitivity configuration
		}
		hcfg.L4 = &cache.Config{
			Name:      "L4",
			Size:      mc.L4Size,
			BlockSize: hcfg.L3.BlockSize,
			Assoc:     assoc,
		}
		if l4Hit == 0 {
			l4Hit = 40
		}
	}
	// Replacement-policy overrides. Stochastic policies draw from a
	// per-cache RNG; the seed is derived from the run seed and a per-level
	// salt so every level streams independently yet repeat runs match.
	applyPolicy := func(c *cache.Config, p cache.Policy, salt uint64) {
		if p == cache.LRU {
			return // zero value: keep the platform default
		}
		c.Policy = p
		if p.Stochastic() && c.Seed == 0 {
			c.Seed = (mc.Seed | 1) * salt
		}
		if mc.DeadBlock && p.RRIP() {
			c.DeadBlock = true
		}
	}
	applyPolicy(&hcfg.L1I, mc.L1Policy, 0x9e3779b97f4a7c15)
	applyPolicy(&hcfg.L1D, mc.L1Policy, 0xbf58476d1ce4e5b9)
	applyPolicy(&hcfg.L2, mc.L2Policy, 0x94d049bb133111eb)
	applyPolicy(&hcfg.L3, mc.L3Policy, 0xd6e8feb86659fd93)
	if hcfg.L4 != nil {
		applyPolicy(hcfg.L4, mc.L4Policy, 0xa0761d6478bd642f)
	}
	if mc.Predictor != nil {
		pc := *mc.Predictor
		if pc.Seed == 0 {
			pc.Seed = mc.Seed | 1
		}
		hcfg.Predictor = &pc
	}
	h = cache.NewHierarchy(hcfg)
	if mc.Mem != nil {
		sys = mem.NewSystem(*mc.Mem)
		h.SetMemSink(sys)
	}
	return h, sys, l4Hit, l4Pen
}

// PreRecord records the replay keys a Measure call with mc will request —
// the warmup run first, then the measured run — without replaying them.
// Parallel sweeps call this serially before fanning out, so recording order
// (the only stateful part of a Replayer) is pinned to the serial engine's
// regardless of worker scheduling.
func PreRecord(r *Replayer, mc MeasureConfig) {
	mc.normalize()
	if warm := int64(float64(mc.Budget) * mc.WarmupFraction); warm > 0 {
		r.Record(mc.Threads, warm, mc.Seed^0xbeef)
	}
	r.Record(mc.Threads, mc.Budget, mc.Seed)
}

// Measure runs the workload against the configured hierarchy and reduces
// the result through the calibrated core model.
func Measure(r Runner, mc MeasureConfig) Metrics {
	if mc.Threads <= 0 || mc.Cores <= 0 || mc.SMTWays <= 0 {
		panic("workload: Measure needs positive cores/threads/SMT")
	}
	mc.normalize()
	h, sys, l4Hit, l4Pen := buildHierarchy(mc)

	var engine *cpu.Engine
	if mc.Prefetchers != nil {
		engine = cpu.NewEngine(h, mc.Cores, mc.Prefetchers)
	}

	// Per-core branch predictors (SMT threads share their core's tables).
	preds := make([]*cpu.PredictorStats, mc.Cores)
	for i := range preds {
		preds[i] = &cpu.PredictorStats{P: cpu.NewGshare(mc.PredictorBits)}
	}
	coreFor := func(t uint8) int { return int(t) / mc.SMTWays % mc.Cores }
	measuring := false // observers only see the post-warmup phase
	sinks := Sinks{
		Access: func(a trace.Access) {
			var lvl cache.HitLevel
			if engine != nil {
				lvl = engine.Access(a)
			} else {
				lvl = h.Access(a)
			}
			if measuring && mc.AccessObserver != nil {
				mc.AccessObserver(a, lvl)
			}
		},
		Branch: func(t uint8, pc uint64, taken bool) {
			mis := preds[coreFor(t)].Observe(cpu.Branch{PC: pc, Taken: taken})
			if measuring && mc.BranchObserver != nil {
				mc.BranchObserver(t, mis)
			}
		},
	}
	// Without a prefetch engine or per-access observer, the hierarchy can
	// consume the access stream through the batched kernel: bit-identical
	// results (see TestBatchedHierarchyEquivalence), one interface call per
	// window instead of per access.
	if engine == nil && mc.AccessObserver == nil {
		sinks.AccessBatch = func(b []trace.Access) { h.AccessBatch(b, nil) }
	}

	// Warmup, then reset statistics and measure.
	warm := int64(float64(mc.Budget) * mc.WarmupFraction)
	if warm > 0 {
		r.Run(mc.Threads, warm, mc.Seed^0xbeef, sinks)
		h.ResetStats()
		if sys != nil {
			sys.ResetStats() // residency and row state stay warm; counters restart
		}
		for i := range preds {
			preds[i].Predictions, preds[i].Mispredicts = 0, 0
		}
	}
	measuring = true
	run := r.Run(mc.Threads, mc.Budget, mc.Seed, sinks)

	return reduce(r, mc, h, sys, preds, run, l4Hit, l4Pen)
}

// reduce turns raw simulation counters into Metrics via the core model.
func reduce(r Runner, mc MeasureConfig, h *cache.Hierarchy, sys *mem.System, preds []*cpu.PredictorStats, run Stats, l4Hit, l4Pen float64) Metrics {
	m := Metrics{
		Instructions: run.Instructions,
		Run:          run,
		L1:           h.L1Stats(),
		L2:           h.L2Stats(),
		L3:           h.L3Stats(),
		L4:           h.L4Stats(),
		MemReads:     h.MemReads,
		MemWrites:    h.MemWrites,
		Pred:         h.PredictorStats(),
	}
	instr := run.Instructions
	if instr == 0 {
		panic(fmt.Sprintf("workload %s: measured zero instructions", r.Name()))
	}
	ki := float64(instr) / 1000

	var mispred int64
	for _, p := range preds {
		mispred += p.Mispredicts
	}
	m.BranchMPKI = float64(mispred) / ki

	l1i, l1d := h.L1IStats(), h.L1DStats()
	m.L1IMPKI = float64(l1i.TotalMisses()) / ki
	m.L1DMPKI = float64(l1d.TotalMisses()) / ki
	m.L2InstrMPKI = float64(m.L2.KindMisses(trace.Fetch)) / ki
	m.L2DataMPKI = float64(m.L2.KindMisses(trace.Read)+m.L2.KindMisses(trace.Write)) / ki
	m.L3LoadMPKI = float64(m.L3.KindMisses(trace.Read)+m.L3.KindMisses(trace.Write)) / ki
	m.L3InstrMPKI = float64(m.L3.KindMisses(trace.Fetch)) / ki
	m.L3HitRate = m.L3.HitRate()
	if h.HasL4() {
		m.L4HitRate = m.L4.HitRate()
	}
	m.DRAMPerKI = float64(h.DRAMAccesses()) / ki

	plat := mc.Platform
	tMEM := plat.MemLatencyNS
	if sys != nil {
		// The tiered model's measured effective read latency (queueing,
		// row-buffer behaviour, far-tier accesses, amortized migrations)
		// replaces the platform's flat memory-latency constant.
		snap := sys.Snapshot()
		m.Mem = &snap
		tMEM = snap.EffectiveReadNS(tMEM)
	}
	m.AMATNS = model.AMATWithL4(m.L3HitRate, m.L4HitRate, plat.L3LatencyNS, l4Hit, tMEM, l4Pen)
	if !h.HasL4() {
		m.AMATNS = model.AMATL3(m.L3HitRate, plat.L3LatencyNS, tMEM)
	}

	core := plat.Core
	if ov := r.MemOverlap(); ov > 0 {
		core.MemOverlap = ov
	}
	rates := cpu.EventRates{
		BranchMispredicts: float64(mispred) / float64(instr),
		L1IMisses:         float64(l1i.TotalMisses()) / float64(instr),
		L2IMisses:         float64(m.L2.KindMisses(trace.Fetch)) / float64(instr),
		L1DMisses:         float64(l1d.TotalMisses()) / float64(instr),
		L2DMisses:         float64(m.L2.KindMisses(trace.Read)+m.L2.KindMisses(trace.Write)) / float64(instr),
		L3IMisses:         float64(m.L3.KindMisses(trace.Fetch)) / float64(instr),
		L3AMATNS:          m.AMATNS,
	}
	m.Breakdown, m.IPC = core.Evaluate(rates)
	return m
}
