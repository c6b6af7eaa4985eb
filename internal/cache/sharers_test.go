package cache

// Exactness oracle for the inclusive L3's core-presence masks. Inclusive
// back-invalidation probes only the cores an evicted line's mask names, so
// it is exact exactly when every private line is covered: its block is
// resident in the L3 (inclusion) and the L3 line's mask has that core's
// bit. This checker walks every valid line of every private cache after
// every access (and prefetch) of seeded random traces and asserts both
// facts, independently of the scalar and batched kernels, which share the
// masks and so cannot vouch for them by agreeing with each other.

import (
	"fmt"
	"testing"

	"searchmem/internal/det"
	"searchmem/internal/stats"
)

// sharerOracleConfigs spans core counts across mask-word boundaries (1, 2,
// 23, 64, 65, 130) and the hierarchy shapes that fill private caches by
// different paths.
func sharerOracleConfigs() map[string]HierarchyConfig {
	cfgs := map[string]HierarchyConfig{}
	for _, n := range []int{1, 2, 23, 64, 65, 130} {
		cfgs[fmt.Sprintf("cores%d", n)] = tinyHierarchy(n, nil)
	}
	l4 := &Config{Size: 32 << 10, BlockSize: 64, Assoc: 4, Seed: 7}
	sp := tinyHierarchy(23, l4)
	sp.SplitL2 = true
	cfgs["splitl2"] = sp
	cfgs["l4victim"] = tinyHierarchy(65, l4)
	fm := tinyHierarchy(23, l4)
	fm.L4FillOnMiss = true
	cfgs["l4fillonmiss"] = fm
	fa := tinyHierarchy(65, nil)
	fa.L3.Assoc = 0
	cfgs["fullyassoc"] = fa
	pp := tinyHierarchy(23, l4)
	pp.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1, Seed: 5}
	cfgs["pred"] = pp
	wide := tinyHierarchy(130, nil)
	wide.L3.BlockSize = 128
	wide.SplitL2 = true
	cfgs["l3block128"] = wide
	return cfgs
}

// forEachBlock calls f with the block address of every valid line of c.
func forEachBlock(c *Cache, f func(block uint64)) {
	if c.assoc == 0 {
		for idx := c.faHead; idx >= 0; idx = c.faNodes[idx].next {
			f(c.faNodes[idx].line.BlockAddr)
		}
		return
	}
	for i, tag := range c.tags {
		if c.meta[i]&metaValid != 0 {
			f(tag)
		}
	}
}

// l3Slot returns the L3 slot holding block, or -1.
func l3Slot(l3 *Cache, block uint64) int {
	if l3.assoc == 0 {
		if idx, ok := l3.faIndex[block]; ok {
			return int(idx)
		}
		return -1
	}
	base := l3.setBase(block)
	if w := l3.findWay(base, block); w >= 0 {
		return base + w
	}
	return -1
}

// checkSharers returns an error naming the first private line that is not
// resident in the L3 or whose core's bit is missing from the L3 line.
func checkSharers(h *Hierarchy) error {
	for core := 0; core < h.cfg.Cores; core++ {
		private := []*Cache{h.l1i[core], h.l1d[core], h.l2[core]}
		if h.cfg.SplitL2 {
			private = append(private, h.l2i[core])
		}
		for _, c := range private {
			var err error
			forEachBlock(c, func(block uint64) {
				if err != nil {
					return
				}
				l3Block := block << c.blockShift >> h.l3.blockShift
				slot := l3Slot(h.l3, l3Block)
				if slot < 0 {
					err = fmt.Errorf("%s holds block %#x absent from the inclusive L3", c.cfg.Name, block)
					return
				}
				if h.l3.sharers[slot*h.l3.sharerWords+core>>6]&(1<<(core&63)) == 0 {
					err = fmt.Errorf("%s holds block %#x but L3 line %#x lacks core %d's bit", c.cfg.Name, block, l3Block, core)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func TestSharerMaskOracle(t *testing.T) {
	cfgs := sharerOracleConfigs()
	for k, name := range det.SortedKeys(cfgs) {
		cfg, seed := cfgs[name], uint64(100+k)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			threads := min(2*cfg.Cores, 256) // trace thread ids are uint8
			h := NewHierarchy(cfg)
			rng := stats.NewRNG(seed)
			var backInv int64
			for i, a := range batchEquivTrace(seed, 20_000, threads) {
				h.Access(a)
				if i%7 == 0 {
					h.InstallPrefetch(rng.Intn(cfg.Cores), 1<<20+uint64(rng.Intn(24<<10)), a.Seg)
				}
				if err := checkSharers(h); err != nil {
					t.Fatalf("after access %d: %v", i, err)
				}
			}
			for _, s := range []AccessStats{h.L1IStats(), h.L1DStats(), h.L2Stats()} {
				backInv += s.BackInvalidations
			}
			if backInv == 0 {
				t.Fatal("trace never back-invalidated a private line; the oracle checked nothing")
			}
		})
	}
}
