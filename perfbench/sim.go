package main

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/mem"
	"searchmem/internal/model"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

// design is one simulated hierarchy a recording is replayed through.
type design struct {
	name string
	plat platform.Platform
	h    cache.HierarchyConfig
	// mem, when non-nil, attaches the tiered main-memory model below the
	// hierarchy.
	mem *mem.Config
}

// recording names one memoized run of a Replayer.
type recording struct {
	rp      *workload.Replayer
	threads int
	budget  int64
	seed    uint64
}

// querySeed seeds every recorded query stream. The benchmark's seed varies
// the corpus instead: its term statistics are drawn from fixed
// distributions, so every seed does about the same work, while a query
// stream of a few dozen queries varies the work by a third from seed to
// seed.
const querySeed = 1

// withCorpusSeed returns wl with its corpus generated from seed.
func withCorpusSeed(wl workload.SearchWorkload, seed uint64) workload.SearchWorkload {
	wl.Engine.Corpus.Seed ^= seed * 0x9e3779b97f4a7c15
	return wl
}

// record records rec's run of runner r and counts the build and recording.
func record(tr *tracer, r *workload.SearchRunner, rec recording) {
	tr.timed(lRecord, "workload.record "+r.Name(), func() { rec.rp.Record(rec.threads, rec.budget, rec.seed) })
	if tr != nil {
		_, st := rec.rp.Trace(rec.threads, rec.budget, rec.seed)
		tr.c.builds++
		tr.c.shardBytes += int64(r.Engine().ShardBytes())
		tr.c.heapBytes += int64(r.Engine().HeapBytes())
		tr.c.recordedAccesses += st.Accesses
		tr.c.recordedBranches += st.Branches
	}
}

// simResult is what one replay measured: the level counters and the Eq. 1
// reduction, as workload.Measure computes them.
type simResult struct {
	L1, L2, L3, L4       cache.AccessStats
	MemReads, MemWrites  int64
	BranchMPKI, AMAT     float64
	IPC                  float64
	Pred                 cache.PredictorStats
	Mem                  *mem.Stats
	Run                  workload.Stats
	replayed, mispredict int64
}

// timedMem times the main-memory model's transactions for a traced replay.
type timedMem struct {
	sys           *mem.System
	m             *meter
	reads, writes int64
}

// MemRead implements cache.MemSink.
func (t *timedMem) MemRead(addr uint64, seg trace.Segment) {
	t.reads++
	if !t.m.sample() {
		t.sys.MemRead(addr, seg)
		return
	}
	t0 := now()
	t.sys.MemRead(addr, seg)
	t.m.timeSince(t0)
}

// MemWrite implements cache.MemSink.
func (t *timedMem) MemWrite(addr uint64, seg trace.Segment) {
	t.writes++
	if !t.m.sample() {
		t.sys.MemWrite(addr, seg)
		return
	}
	t0 := now()
	t.sys.MemWrite(addr, seg)
	t.m.timeSince(t0)
}

// replay drives rec through design d with one gshare predictor per core,
// then reduces the counters through the core model. A traced replay times
// the kernel, the memory model and the predictors, sampling one call in
// sampleEvery.
func replay(tr *tracer, rec recording, d design) (simResult, error) {
	h := cache.NewHierarchy(d.h)
	var sys *mem.System
	var tm *timedMem
	if d.mem != nil {
		sys = mem.NewSystem(*d.mem)
		if tr != nil {
			tm = &timedMem{sys: sys, m: &tr.m[lMem]}
			h.SetMemSink(tm)
		} else {
			h.SetMemSink(sys)
		}
	}
	cores, smt := d.h.Cores, d.h.ThreadsPerCore
	preds := make([]*cpu.PredictorStats, cores)
	for i := range preds {
		preds[i] = &cpu.PredictorStats{P: cpu.NewGshare(14)}
	}
	var replayed int64
	var sinks workload.Sinks
	if tr == nil {
		sinks.AccessBatch = func(b []trace.Access) {
			replayed += int64(len(b))
			h.AccessBatch(b, nil)
		}
		sinks.Branch = func(t uint8, pc uint64, taken bool) {
			preds[int(t)/smt%cores].Observe(cpu.Branch{PC: pc, Taken: taken})
		}
	} else {
		cm, bm := &tr.m[lCache], &tr.m[lBranch]
		// Batches run to thousands of accesses, so every one is timed.
		sinks.AccessBatch = func(b []trace.Access) {
			replayed += int64(len(b))
			cm.calls++
			cm.units += int64(len(b))
			t0 := now()
			h.AccessBatch(b, nil)
			cm.timeSince(t0)
		}
		sinks.Branch = func(t uint8, pc uint64, taken bool) {
			p := preds[int(t)/smt%cores]
			if !bm.sample() {
				p.Observe(cpu.Branch{PC: pc, Taken: taken})
				return
			}
			t0 := now()
			p.Observe(cpu.Branch{PC: pc, Taken: taken})
			bm.timeSince(t0)
		}
	}
	var run workload.Stats
	tr.timed(lReplay, "replay "+d.name, func() { run = rec.rp.Run(rec.threads, rec.budget, rec.seed, sinks) })
	var r simResult
	tr.timed(lReduce, "reduce "+d.name, func() { r = reduce(d, h, sys, preds, run, rec.rp.MemOverlap()) })
	r.replayed = replayed

	if want := rec.rp.StoreStats().Accesses; replayed != want {
		return r, fmt.Errorf("replayed %d accesses, the store holds %d", replayed, want)
	}
	if tm != nil && (tm.reads != h.MemReads || tm.writes != h.MemWrites) {
		return r, fmt.Errorf("memory sink saw %d reads/%d writes, the hierarchy counted %d/%d",
			tm.reads, tm.writes, h.MemReads, h.MemWrites)
	}
	if tr != nil {
		c := &tr.c
		c.l1Misses += r.L1.TotalMisses()
		c.l2Misses += r.L2.TotalMisses()
		c.l3Misses += r.L3.TotalMisses()
		c.l4Hits += r.L4.TotalHits()
		c.memReads += r.MemReads
		c.memWrites += r.MemWrites
		c.probesPerformed += r.Pred.ProbesPerformed
		c.probesBaseline += r.Pred.ProbesBaseline
		c.branches += run.Branches
		c.mispredicts += r.mispredict
		if r.Mem != nil {
			c.sinkReads += tm.reads
			c.sinkWrites += tm.writes
			c.rowHits += r.Mem.RowHits
			c.rowMisses += r.Mem.RowMisses
			c.farReads += r.Mem.FarReads
		}
	}
	return r, nil
}

// reduce turns the replay's counters into the Eq. 1 outputs exactly as
// workload.Measure does for a design without warmup. overlap is the
// workload's memory-level-parallelism factor (0 = the platform's).
func reduce(d design, h *cache.Hierarchy, sys *mem.System, preds []*cpu.PredictorStats, run workload.Stats, overlap float64) simResult {
	r := simResult{
		L1: h.L1Stats(), L2: h.L2Stats(), L3: h.L3Stats(), L4: h.L4Stats(),
		MemReads: h.MemReads, MemWrites: h.MemWrites,
		Pred: h.PredictorStats(),
		Run:  run,
	}
	instr := run.Instructions
	ki := float64(instr) / 1000
	for _, p := range preds {
		r.mispredict += p.Mispredicts
	}
	r.BranchMPKI = float64(r.mispredict) / ki
	l3Hit, l4Hit := r.L3.HitRate(), 0.0
	if h.HasL4() {
		l4Hit = r.L4.HitRate()
	}
	tMEM := d.plat.MemLatencyNS
	if sys != nil {
		snap := sys.Snapshot()
		r.Mem = &snap
		tMEM = snap.EffectiveReadNS(tMEM)
	}
	if h.HasL4() {
		r.AMAT = model.AMATWithL4(l3Hit, l4Hit, d.plat.L3LatencyNS, 40, tMEM, 0)
	} else {
		r.AMAT = model.AMATL3(l3Hit, d.plat.L3LatencyNS, tMEM)
	}
	l1i, l1d := h.L1IStats(), h.L1DStats()
	per := func(n int64) float64 { return float64(n) / float64(instr) }
	core := d.plat.Core
	if overlap > 0 {
		core.MemOverlap = overlap
	}
	_, r.IPC = core.Evaluate(cpu.EventRates{
		BranchMispredicts: per(r.mispredict),
		L1IMisses:         per(l1i.TotalMisses()),
		L2IMisses:         per(r.L2.KindMisses(trace.Fetch)),
		L1DMisses:         per(l1d.TotalMisses()),
		L2DMisses:         per(r.L2.KindMisses(trace.Read) + r.L2.KindMisses(trace.Write)),
		L3IMisses:         per(r.L3.KindMisses(trace.Fetch)),
		L3AMATNS:          r.AMAT,
	})
	return r
}

// digest writes the simulated outputs of a replay.
func (r *simResult) digest(d *digester) {
	d.Printf("run %+v", r.Run)
	// rawStats drops AccessStats' String method so every field is hashed.
	type rawStats cache.AccessStats
	d.Printf("L1 %+v", rawStats(r.L1))
	d.Printf("L2 %+v", rawStats(r.L2))
	d.Printf("L3 %+v", rawStats(r.L3))
	d.Printf("L4 %+v", rawStats(r.L4))
	d.Printf("mem %d %d pred %+v", r.MemReads, r.MemWrites, r.Pred)
	d.Printf("eq1 amat=%v ipc=%v branch_mpki=%v", r.AMAT, r.IPC, r.BranchMPKI)
	if r.Mem != nil {
		d.Printf("tiered %+v", *r.Mem)
	}
}
