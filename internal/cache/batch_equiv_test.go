package cache

// Equivalence tests for the batched replay kernels: AccessBatch /
// DrainBatch must be observationally identical to the scalar per-access
// path — same stats, same HitLevel per access, and bit-identical internal
// cache state (tag/stamp/meta arrays, occupancy, recency clock, line
// buffer, FA list order) regardless of policy, partitioning, or batch size.

import (
	"reflect"
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// equivTrace generates a seeded access pattern with hot, warm and cold
// regions so the hierarchy sees hits at every level, evictions, dirty
// writebacks, instruction fetches and unaligned multi-block accesses.
func batchEquivTrace(seed uint64, n, threads int) []trace.Access {
	rng := stats.NewRNG(seed)
	accs := make([]trace.Access, 0, n)
	for i := 0; i < n; i++ {
		seg := trace.Segment(rng.Intn(trace.NumSegments))
		kind := trace.Kind(rng.Intn(trace.NumKinds))
		var addr uint64
		switch rng.Intn(4) {
		case 0: // hot: fits L1, mostly hits
			addr = uint64(rng.Intn(1 << 10))
		case 1: // warm: fits L3 but not the private levels
			addr = 1<<20 + uint64(rng.Intn(12<<10))
		case 2: // same-block run: consecutive fetch-style reuse
			addr = 1 << 16
		default: // cold: misses everywhere, forces evictions
			addr = 1<<30 + uint64(rng.Intn(1<<19))
		}
		size := uint16(1 << rng.Intn(7)) // 1..64 B, may straddle blocks
		accs = append(accs, trace.Access{
			Addr: addr, Size: size, Seg: seg, Kind: kind,
			Thread: uint8(rng.Intn(threads)),
		})
	}
	return accs
}

// cacheSnap captures a cache's complete observable and internal state.
type cacheSnap struct {
	Stats  AccessStats
	Tags   []uint64
	Stamps []uint64
	Meta   []uint8
	Occ    []uint16
	Clock  uint64
	Last   uint64
	PSEL   int32
	DB     []uint8
	FAList []Line // fully-associative store in recency order
	// Sharers is the inclusive L3's core-presence masks (nil elsewhere).
	Sharers []uint64
}

func snapCache(c *Cache) cacheSnap {
	s := cacheSnap{
		Stats: c.Stats,
		Tags:  append([]uint64(nil), c.tags...),
		Occ:   append([]uint16(nil), c.occ...),
		Clock: c.clock,
		Last:  c.lastBlock,
		PSEL:  c.psel,
		DB:    append([]uint8(nil), c.db...),
	}
	s.Stamps = append([]uint64(nil), c.stamps...)
	s.Sharers = append([]uint64(nil), c.sharers...)
	s.Meta = append([]uint8(nil), c.meta...)
	if c.assoc == 0 {
		for idx := c.faHead; idx >= 0; idx = c.faNodes[idx].next {
			s.FAList = append(s.FAList, c.faNodes[idx].line)
		}
	}
	return s
}

// snapHierarchy captures every cache in the hierarchy plus memory traffic.
func snapHierarchy(h *Hierarchy) map[string]any {
	m := map[string]any{
		"MemReads":  h.MemReads,
		"MemWrites": h.MemWrites,
		"PrefFills": h.PrefetchFills,
		"PrefReads": h.PrefetchMemReads,
		"L3":        snapCache(h.l3),
	}
	for i, c := range h.l1i {
		m["L1I"+string(rune('0'+i))] = snapCache(c)
	}
	for i, c := range h.l1d {
		m["L1D"+string(rune('0'+i))] = snapCache(c)
	}
	for i, c := range h.l2 {
		m["L2"+string(rune('0'+i))] = snapCache(c)
	}
	for i, c := range h.l2i {
		m["L2I"+string(rune('0'+i))] = snapCache(c)
	}
	if h.l4 != nil {
		m["L4"] = snapCache(h.l4)
	}
	if h.pred != nil {
		m["Pred"] = map[string]any{
			"Tags":      append([]uint16(nil), h.pred.tags...),
			"Level":     append([]uint8(nil), h.pred.level...),
			"Conf":      append([]uint8(nil), h.pred.conf...),
			"Stats":     h.pred.Stats,
			"LastFetch": h.lastFetch,
		}
	}
	return m
}

// equivConfigs is the hierarchy matrix the batched kernels must match the
// scalar path on: every policy (including the RRIP family and dead-block
// insertion), way-partitioning, a fully-associative level, split L2s, both
// L4 victim modes, and the level predictor in both indexing modes.
func equivConfigs() map[string]HierarchyConfig {
	withPolicy := func(p Policy) HierarchyConfig {
		cfg := tinyHierarchy(2, nil)
		cfg.L1I.Policy, cfg.L1D.Policy, cfg.L2.Policy, cfg.L3.Policy = p, p, p, p
		if p.Stochastic() {
			cfg.L1I.Seed, cfg.L1D.Seed, cfg.L2.Seed, cfg.L3.Seed = 11, 12, 13, 14
		}
		return cfg
	}
	l4 := &Config{Size: 32 << 10, BlockSize: 64, Assoc: 4, Seed: 7}
	cfgs := map[string]HierarchyConfig{
		"lru":    withPolicy(LRU),
		"fifo":   withPolicy(FIFO),
		"random": withPolicy(Random),
		"srrip":  withPolicy(SRRIP),
		"brrip":  withPolicy(BRRIP),
		"drrip":  withPolicy(DRRIP),
		"l4":     tinyHierarchy(2, l4),
	}
	db := withPolicy(SRRIP)
	db.L2.DeadBlock, db.L3.DeadBlock = true, true
	cfgs["srrip+db"] = db
	aw := tinyHierarchy(2, nil)
	aw.L3.AllocWays = 3
	cfgs["allocways"] = aw
	fa := tinyHierarchy(2, nil)
	fa.L3.Assoc = 0 // fully-associative shared L3
	cfgs["fullyassoc"] = fa
	sp := tinyHierarchy(2, l4)
	sp.SplitL2 = true
	cfgs["splitl2"] = sp
	fm := tinyHierarchy(1, l4)
	fm.L4FillOnMiss = true
	cfgs["l4fillonmiss"] = fm
	// Level predictor, per-PC keys, with an L4 (jump-to-L4 + bypass paths).
	// A tiny low-confidence table maximizes acted-on predictions — and so
	// mispredict-fallback coverage — on the small equivalence trace.
	pp := tinyHierarchy(2, l4)
	pp.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1, Seed: 5}
	cfgs["pred"] = pp
	// Block-indexed predictor without an L4 (jump-to-L3 + L3-bottom bypass),
	// stacked on an RRIP L3 so the paths compose.
	pb := withPolicy(SRRIP)
	pb.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1, Seed: 9, IndexBlock: true}
	cfgs["predblock"] = pb
	// 65 cores: the inclusive L3's core-presence masks span two words.
	cfgs["cores65"] = tinyHierarchy(65, nil)
	return cfgs
}

// TestBatchedHierarchyEquivalence drains the same trace through the scalar
// path and through AccessBatch at several batch sizes, requiring identical
// HitLevel sequences and bit-identical end state.
func TestBatchedHierarchyEquivalence(t *testing.T) {
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			// At least one thread per core, so every core holds lines.
			tr := batchEquivTrace(42, 20000, max(4, cfg.Cores))
			ref := NewHierarchy(cfg)
			refLevels := make([]HitLevel, 0, len(tr))
			for _, a := range tr {
				refLevels = append(refLevels, ref.Access(a))
			}
			refSnap := snapHierarchy(ref)

			for _, bs := range []int{1, 3, 64, 1000, len(tr)} {
				h := NewHierarchy(cfg)
				levels := make([]HitLevel, 0, len(tr))
				for lo := 0; lo < len(tr); lo += bs {
					hi := lo + bs
					if hi > len(tr) {
						hi = len(tr)
					}
					levels = h.AccessBatch(tr[lo:hi], levels)
				}
				if !reflect.DeepEqual(levels, refLevels) {
					t.Fatalf("batch size %d: HitLevel sequence diverges from scalar", bs)
				}
				if got := snapHierarchy(h); !reflect.DeepEqual(got, refSnap) {
					t.Fatalf("batch size %d: internal state diverges from scalar", bs)
				}
			}
		})
	}
}

// TestDrainBatchedAdapterEquivalence checks Drain's two entry points: a
// zero-copy Shared view (BatchStream fast path) and a scalar generator
// wrapped by trace.Batched both match the per-access reference.
func TestDrainBatchedAdapterEquivalence(t *testing.T) {
	tr := batchEquivTrace(7, 8000, 2)
	cfg := tinyHierarchy(2, &Config{Size: 32 << 10, BlockSize: 64, Assoc: 4})

	ref := NewHierarchy(cfg)
	for _, a := range tr {
		ref.Access(a)
	}
	refSnap := snapHierarchy(ref)

	viaView := NewHierarchy(cfg)
	viaView.Drain(trace.NewShared(tr).View())
	if !reflect.DeepEqual(snapHierarchy(viaView), refSnap) {
		t.Fatal("Drain(Shared view) diverges from scalar replay")
	}

	viaAdapter := NewHierarchy(cfg)
	i := 0
	gen := trace.FuncStream(func(a *trace.Access) bool {
		if i >= len(tr) {
			return false
		}
		*a = tr[i]
		i++
		return true
	})
	viaAdapter.DrainBatch(trace.Batched(gen))
	if !reflect.DeepEqual(snapHierarchy(viaAdapter), refSnap) {
		t.Fatal("DrainBatch(Batched adapter) diverges from scalar replay")
	}
}

// TestCacheAccessBatchEquivalence checks the single-cache kernel against
// Access per covered block, including the returned hit count.
func TestCacheAccessBatchEquivalence(t *testing.T) {
	tr := batchEquivTrace(99, 12000, 1)
	cfgs := map[string]Config{
		"lru":       {Size: 8 << 10, BlockSize: 64, Assoc: 4},
		"fifo":      {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: FIFO},
		"random":    {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: Random, Seed: 3},
		"srrip":     {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: SRRIP},
		"brrip":     {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: BRRIP, Seed: 4},
		"drrip":     {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: DRRIP, Seed: 5},
		"srrip+db":  {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: SRRIP, DeadBlock: true},
		"allocways": {Size: 8 << 10, BlockSize: 64, Assoc: 8, AllocWays: 5},
		"fa":        {Size: 8 << 10, BlockSize: 64, Assoc: 0},
	}
	// Both sides probe a chunk and then fill its missing blocks through the
	// identical helper, so the only difference under test is the probe
	// kernel itself (AccessBatch vs an Access loop).
	fillChunk := func(c *Cache, chunk []trace.Access) {
		for _, a := range chunk {
			size := uint64(a.Size)
			if size == 0 {
				size = 1
			}
			first := c.BlockAddr(a.Addr)
			last := c.BlockAddr(a.Addr + size - 1)
			for b := first; b <= last; b++ {
				if !c.Contains(b) {
					c.Fill(b, a.Seg, a.Kind == trace.Write)
				}
			}
		}
	}
	const chunk = 512
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			ref := New(cfg)
			var refHits int64
			for lo := 0; lo < len(tr); lo += chunk {
				hi := min(lo+chunk, len(tr))
				for _, a := range tr[lo:hi] {
					size := uint64(a.Size)
					if size == 0 {
						size = 1
					}
					first := ref.BlockAddr(a.Addr)
					last := ref.BlockAddr(a.Addr + size - 1)
					for b := first; b <= last; b++ {
						if ref.Access(b, a.Seg, a.Kind) {
							refHits++
						}
					}
				}
				fillChunk(ref, tr[lo:hi])
			}

			got := New(cfg)
			var gotHits int64
			for lo := 0; lo < len(tr); lo += chunk {
				hi := min(lo+chunk, len(tr))
				gotHits += got.AccessBatch(tr[lo:hi])
				fillChunk(got, tr[lo:hi])
			}

			if gotHits != refHits {
				t.Fatalf("hit count: batched %d, scalar %d", gotHits, refHits)
			}
			if !reflect.DeepEqual(snapCache(got), snapCache(ref)) {
				t.Fatal("internal state diverges from scalar probing")
			}
			if ref.Stats.TotalHits() == 0 || ref.Stats.TotalMisses() == 0 {
				t.Fatal("degenerate trace: want both hits and misses")
			}
		})
	}
}
