package main

import (
	"searchmem/internal/platform"
	"searchmem/internal/workload"
)

// build builds each distinct Table I search profile, records a short run
// of it, and replays the recording through one small hierarchy: index build
// and workload execution dominate, the cache kernel does little.
type build struct {
	shrink   int
	budget   int64
	seed     uint64
	profiles []workload.SearchWorkload
	small    design
}

// buildThreads, buildCores and buildSMT shape the short recordings: 4
// trace threads on 2 two-way SMT cores.
const (
	buildThreads = 4
	buildCores   = 2
	buildSMT     = 2
)

func newBuild(cfg *config) pass {
	b := &build{shrink: 8, budget: 400_000, seed: cfg.seed}
	if cfg.tiny {
		b.shrink, b.budget = 64, 20_000
	}
	plat := platform.PLT1().ScaleCaches(workload.SweepScale)
	b.small = design{name: "small", plat: plat, h: plat.Hierarchy(buildCores, buildSMT, 0)}
	return b
}

// setup makes the six profile configurations.
func (b *build) setup(tr *tracer) error {
	b.profiles = []workload.SearchWorkload{
		workload.S1Leaf(b.shrink), workload.S2Leaf(b.shrink), workload.S3Leaf(b.shrink),
		workload.S1Root(b.shrink), workload.S2Root(b.shrink), workload.S3Root(b.shrink),
	}
	for i := range b.profiles {
		b.profiles[i] = withCorpusSeed(b.profiles[i], b.seed)
	}
	return nil
}

func (b *build) ops(tr *tracer) []task {
	tasks := make([]task, 0, len(b.profiles))
	for _, wl := range b.profiles {
		tasks = append(tasks, task{wl.WLName, func(o *op) error {
			var r *workload.SearchRunner
			tr.timed(lSearchBuild, "search.build "+wl.WLName, func() { r = wl.Build() })
			rec := recording{rp: workload.NewReplayer(r), threads: buildThreads, budget: b.budget, seed: querySeed}
			record(tr, r, rec)
			res, err := replay(tr, rec, b.small)
			o.accesses = res.replayed
			var dg digester
			dg.Printf("shard %d heap %d", r.Engine().ShardBytes(), r.Engine().HeapBytes())
			res.digest(&dg)
			o.digest = dg.Sum()
			return err
		}})
	}
	return tasks
}
