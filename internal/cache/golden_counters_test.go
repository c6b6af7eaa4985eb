package cache

// Golden counters: per-level hit/miss totals, inclusive back-invalidations,
// writeback fills, memory traffic and predictor statistics of a few
// many-core inclusive hierarchies on one fixed seeded trace, pinned as
// literals. Any change to the kernel that alters a single probe outcome,
// fill, eviction or back-invalidation — for instance an inexact shortcut
// in inclusive back-invalidation — changes these numbers and fails here.

import (
	"fmt"
	"strings"
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// goldenConfigs are the pinned hierarchies: the paper's 18- and 23-core
// iso-area shapes with 16 threads on 8 two-way SMT cores (most cores never
// hold a line), the 23-core shape with an L4 and the level predictor, and
// a 65-core hierarchy whose every core is active.
func goldenConfigs() map[string]HierarchyConfig {
	smt := func(cores int) HierarchyConfig {
		cfg := tinyHierarchy(cores, nil)
		cfg.ThreadsPerCore = 2
		return cfg
	}
	pred := smt(23)
	pred.L4 = &Config{Size: 32 << 10, BlockSize: 64, Assoc: 4, Seed: 7}
	pred.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1, Seed: 5}
	wide := tinyHierarchy(65, nil)
	wide.SplitL2 = true
	wide.L3.BlockSize = 128
	return map[string]HierarchyConfig{
		"iso18":      smt(18),
		"iso23":      smt(23),
		"iso23-pred": pred,
		"wide65":     wide,
	}
}

// goldenThreads is the trace thread count per golden config: 16 threads
// on the SMT shapes, two threads per core on the 65-core one.
func goldenThreads(cfg HierarchyConfig) int {
	if cfg.ThreadsPerCore == 2 {
		return 16
	}
	return 2 * cfg.Cores
}

// runGolden replays the fixed trace with a prefetch into a pseudo-random
// core every 17th access, and renders the counters.
func runGolden(cfg HierarchyConfig) string {
	h := NewHierarchy(cfg)
	tr := batchEquivTrace(2018, 60_000, goldenThreads(cfg))
	rng := stats.NewRNG(99)
	for i, a := range tr {
		h.Access(a)
		if i%17 == 0 {
			h.InstallPrefetch(rng.Intn(cfg.Cores), 1<<20+uint64(rng.Intn(24<<10)), trace.Segment(rng.Intn(trace.NumSegments)))
		}
	}
	return goldenCounters(h)
}

// goldenCounters renders every pinned counter, one level per line.
func goldenCounters(h *Hierarchy) string {
	var b strings.Builder
	level := func(name string, s AccessStats) {
		var hits, misses int64
		for seg := 0; seg < trace.NumSegments; seg++ {
			for k := 0; k < trace.NumKinds; k++ {
				hits += s.Hits[seg][k]
				misses += s.Misses[seg][k]
			}
		}
		fmt.Fprintf(&b, "%s hits=%d misses=%d backinv=%d wbfills=%d pred=%d/%d/%d\n",
			name, hits, misses, s.BackInvalidations, s.WritebackFills, s.PredHits, s.PredMispredicts, s.PredSkips)
	}
	level("L1I", h.L1IStats())
	level("L1D", h.L1DStats())
	level("L2", h.L2Stats())
	level("L3", h.L3Stats())
	level("L4", h.L4Stats())
	fmt.Fprintf(&b, "mem reads=%d writes=%d prefetch=%d/%d\n", h.MemReads, h.MemWrites, h.PrefetchFills, h.PrefetchMemReads)
	p := h.PredictorStats()
	fmt.Fprintf(&b, "predictor lookups=%d jumps=%d bypasses=%d verified=%d mispredicts=%d probes=%d/%d\n",
		p.Lookups, p.Jumps, p.Bypasses, p.Verified, p.Mispredicts, p.ProbesPerformed, p.ProbesBaseline)
	return b.String()
}

// goldenWant holds the counters recorded before inclusive back-invalidation
// learned to skip cores; they must never move.
var goldenWant = map[string]string{
	"iso18": `L1I hits=5388 misses=18791 backinv=7490 wbfills=0 pred=0/0/0
L1D hits=12031 misses=35759 backinv=5513 wbfills=0 pred=0/0/0
L2 hits=10438 misses=44112 backinv=35251 wbfills=308 pred=0/0/0
L3 hits=14949 misses=29163 backinv=0 wbfills=0 pred=0/0/0
L4 hits=0 misses=0 backinv=0 wbfills=0 pred=0/0/0
mem reads=31742 writes=12010 prefetch=3454/2579
predictor lookups=0 jumps=0 bypasses=0 verified=0 mispredicts=0 probes=0/0
`,
	"iso23": `L1I hits=5365 misses=18814 backinv=7525 wbfills=0 pred=0/0/0
L1D hits=12000 misses=35790 backinv=5546 wbfills=0 pred=0/0/0
L2 hits=10453 misses=44151 backinv=35487 wbfills=291 pred=0/0/0
L3 hits=14978 misses=29173 backinv=0 wbfills=0 pred=0/0/0
L4 hits=0 misses=0 backinv=0 wbfills=0 pred=0/0/0
mem reads=31749 writes=12022 prefetch=3466/2576
predictor lookups=0 jumps=0 bypasses=0 verified=0 mispredicts=0 probes=0/0
`,
	"iso23-pred": `L1I hits=5365 misses=18814 backinv=7525 wbfills=0 pred=0/0/0
L1D hits=12000 misses=35790 backinv=5546 wbfills=0 pred=0/0/0
L2 hits=10453 misses=44151 backinv=35487 wbfills=291 pred=0/1509/3843
L3 hits=14978 misses=29173 backinv=0 wbfills=0 pred=129/2193/3714
L4 hits=8265 misses=20908 backinv=0 wbfills=0 pred=4/1055/3710
mem reads=22635 writes=9528 prefetch=3466/1727
predictor lookups=54604 jumps=436 bypasses=8164 verified=3843 mispredicts=4757 probes=9513/20477
`,
	"wide65": `L1I hits=3774 misses=20405 backinv=19050 wbfills=0 pred=0/0/0
L1D hits=10279 misses=37511 backinv=32151 wbfills=0 pred=0/0/0
L2 hits=1245 misses=56671 backinv=59483 wbfills=1 pred=0/0/0
L3 hits=31068 misses=25603 backinv=0 wbfills=0 pred=0/0/0
L4 hits=0 misses=0 backinv=0 wbfills=0 pred=0/0/0
mem reads=28190 writes=10264 prefetch=3518/2587
predictor lookups=0 jumps=0 bypasses=0 verified=0 mispredicts=0 probes=0/0
`,
}

func TestGoldenCounters(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			if got := runGolden(cfg); got != goldenWant[name] {
				t.Errorf("counters moved:\ngot:\n%swant:\n%s", got, goldenWant[name])
			}
		})
	}
}
