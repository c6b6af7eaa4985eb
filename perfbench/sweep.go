package main

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/mem"
	"searchmem/internal/model"
	"searchmem/internal/platform"
	"searchmem/internal/workload"
)

// sweep builds the S1-leaf capacity-sweep index once, records one run of it,
// and replays the recording through a fixed grid of hierarchy designs plus
// one stack-distance pass: the cache kernel dominates, the build is paid
// once per pass.
type sweep struct {
	wl   workload.SearchWorkload
	rec  recording
	grid []design
}

// sweepThreads and sweepSMT shape the sweep's replay: 16 trace threads on
// two-way SMT cores, as the repository's capacity sweeps run. The threads
// occupy 8 cores; the rest of each design's cores hold no lines, but every
// inclusive back-invalidation still probes them.
const (
	sweepThreads = 16
	sweepSMT     = 2
)

func newSweep(cfg *config) pass {
	shrink, budget := 8, int64(2_400_000)
	if cfg.tiny {
		shrink, budget = 64, 60_000
	}
	return &sweep{
		wl:   withCorpusSeed(workload.S1LeafSweep(shrink), cfg.seed),
		rec:  recording{threads: sweepThreads, budget: budget, seed: querySeed},
		grid: sweepGrid(),
	}
}

// sweepGrid is the fixed design grid, at the sweep profile's 1/SweepScale
// cache scale with PLT1's inclusive L3 (every L3 eviction back-invalidates
// the private caches of every core):
//   - iso18..iso23: the Figure 9/10 iso-area splits, n cores trading 4 MiB
//     of L3 per added core from the 18-core, 45 MiB floor plan;
//   - l4-256, l4-1024, l4-4096: direct-mapped L4 capacities behind the
//     rebalanced 23-core, 23 MiB L3 design (paper MiB);
//   - tier: the tiered main-memory model below that design, a 1024-page
//     near tier with epoch-LRU placement;
//   - rrip-pred: SRRIP with dead-block insertion in L2-L4 plus the
//     cache-level predictor, behind a 1 GiB L4.
func sweepGrid() []design {
	plat := platform.PLT1().ScaleCaches(workload.SweepScale)
	at := func(name string, cores int, l3PaperMiB int64) design {
		return design{name: name, plat: plat,
			h: plat.HierarchyWithL3Size(cores, sweepSMT, workload.SimUnits(l3PaperMiB<<20))}
	}
	area := model.AreaModel{CoreAreaMiB: plat.CoreAreaL3MiB}
	total := area.Area(18, 2.5)
	var grid []design
	for n := 18; n <= 23; n++ {
		l3 := int64(total) - int64(n)*int64(plat.CoreAreaL3MiB)
		grid = append(grid, at(fmt.Sprintf("iso%d", n), n, l3))
	}
	withL4 := func(d design, paperMiB int64) design {
		d.h.L4 = &cache.Config{Name: "L4", Size: workload.SimUnits(paperMiB << 20), BlockSize: d.h.L3.BlockSize, Assoc: 1}
		return d
	}
	for _, mb := range []int64{256, 1024, 4096} {
		grid = append(grid, withL4(at(fmt.Sprintf("l4-%d", mb), 23, 23), mb))
	}
	tier := at("tier", 23, 23)
	tier.mem = &mem.Config{Far: &mem.FarConfig{NearPages: 1024, Policy: mem.PolicyLRUEpoch, EpochLen: 1 << 13}}
	grid = append(grid, tier)
	pred := withL4(at("rrip-pred", 23, 23), 1024)
	for _, c := range []*cache.Config{&pred.h.L2, &pred.h.L3, pred.h.L4} {
		c.Policy, c.DeadBlock = cache.SRRIP, true
	}
	pred.h.Predictor = &cache.PredictorConfig{Seed: 1}
	return append(grid, pred)
}

func (s *sweep) setup(tr *tracer) error {
	var r *workload.SearchRunner
	tr.timed(lSearchBuild, "search.build "+s.wl.WLName, func() { r = s.wl.Build() })
	s.rec.rp = workload.NewReplayer(r)
	record(tr, r, s.rec)
	return nil
}

func (s *sweep) ops(tr *tracer) []task {
	var tasks []task
	for _, d := range s.grid {
		tasks = append(tasks, task{d.name, func(o *op) error {
			r, err := replay(tr, s.rec, d)
			o.accesses = r.replayed
			var dg digester
			r.digest(&dg)
			o.digest = dg.Sum()
			return err
		}})
	}
	return append(tasks, task{"stackdist", func(o *op) error {
		sd := cache.NewStackDist(64)
		st, _ := s.rec.rp.Trace(s.rec.threads, s.rec.budget, s.rec.seed)
		tr.timed(lStackDist, "cache.stackdist", func() { sd.Drain(st.Cursor()) })
		var dg digester
		dg.Printf("accesses %d footprint %d", sd.TotalAccesses(), sd.Footprint())
		for _, kib := range []int64{256, 1024, 4096, 16384} {
			dg.Printf("hit@%dKiB %v", kib, sd.CombinedHitRate(kib<<10))
		}
		o.digest = dg.Sum()
		if tr != nil {
			tr.c.stackDistAccesses += sd.TotalAccesses()
		}
		return nil
	}})
}

// crossCheck compares the first design's replay with workload.Measure on
// the same recording and configuration: the benchmark's own replay and
// reduce must agree with the program's measurement path.
func (s *sweep) crossCheck() []task {
	return []task{{"measure-xcheck", func(o *op) error {
		if err := s.setup(nil); err != nil {
			return err
		}
		d := s.grid[0]
		mine, err := replay(nil, s.rec, d)
		if err != nil {
			return err
		}
		m := workload.Measure(s.rec.rp, workload.MeasureConfig{
			Platform: d.plat, Cores: d.h.Cores, SMTWays: sweepSMT, Threads: s.rec.threads,
			L3Size: d.h.L3.Size, Budget: s.rec.budget, Seed: s.rec.seed,
			WarmupFraction: workload.NoWarmup,
		})
		if m.L1 != mine.L1 || m.L2 != mine.L2 || m.L3 != mine.L3 || m.L4 != mine.L4 ||
			m.MemReads != mine.MemReads || m.MemWrites != mine.MemWrites ||
			m.IPC != mine.IPC || m.AMATNS != mine.AMAT || m.BranchMPKI != mine.BranchMPKI {
			return fmt.Errorf("%w: design %s replay (ipc %v amat %v) vs workload.Measure (ipc %v amat %v)",
				errMismatch, d.name, mine.IPC, mine.AMAT, m.IPC, m.AMATNS)
		}
		o.digest = "ok"
		return nil
	}}}
}
