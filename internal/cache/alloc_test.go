//go:build !race

// Allocation-regression oracles for the //lint:hot simulator kernels. The
// searchlint hotalloc analyzer proves these paths allocation-free statically;
// these tests pin the same property dynamically with testing.AllocsPerRun so
// a regression that slips past the analyzer (compiler change, unsummarized
// callee, heuristic blind spot) still fails CI. Excluded under -race because
// race instrumentation inserts allocations of its own.

package cache

import (
	"testing"

	"searchmem/internal/det"
)

// requireZeroAllocs runs f through testing.AllocsPerRun (which performs one
// warm-up call before measuring, absorbing any one-time lazy growth) and
// fails if steady-state allocations are nonzero.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(10, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

// TestCacheAccessBatchZeroAlloc pins the standalone single-level kernel,
// including the fully-associative path whose free/node arrays are
// preallocated in New precisely so this holds.
func TestCacheAccessBatchZeroAlloc(t *testing.T) {
	batch := batchEquivTrace(11, 4096, 2)
	configs := map[string]Config{
		"setassoc": {Size: 8 << 10, BlockSize: 64, Assoc: 4},
		"fifo":     {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: FIFO},
		"random":   {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: Random, Seed: 3},
		"srrip":    {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: SRRIP},
		"brrip":    {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: BRRIP, Seed: 5},
		"drrip":    {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: DRRIP, Seed: 6},
		"srrip+db": {Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: SRRIP, DeadBlock: true},
		"fa":       {Size: 4 << 10, BlockSize: 64, Assoc: 0},
	}
	for _, name := range det.SortedKeys(configs) {
		c := New(configs[name])
		requireZeroAllocs(t, name, func() {
			c.AccessBatch(batch)
		})
	}
}

// TestHierarchyAccessBatchZeroAlloc drives the full-hierarchy batched kernel
// across every equivalence-suite configuration (policies, L4 variants, split
// L2s, fully-associative levels), both with nil levels and with a
// caller-provided cap-sized levels slice (the documented no-growth contract).
func TestHierarchyAccessBatchZeroAlloc(t *testing.T) {
	cfgs := equivConfigs()
	for _, name := range det.SortedKeys(cfgs) {
		batch := batchEquivTrace(12, 4096, max(2, cfgs[name].Cores))
		h := NewHierarchy(cfgs[name])
		requireZeroAllocs(t, name+"/nil-levels", func() {
			h.AccessBatch(batch, nil)
		})
		levels := make([]HitLevel, 0, len(batch))
		requireZeroAllocs(t, name+"/cap-levels", func() {
			levels = h.AccessBatch(batch, levels[:0])
		})
		if len(levels) != len(batch) {
			t.Fatalf("%s: %d levels for %d accesses", name, len(levels), len(batch))
		}
	}
}
