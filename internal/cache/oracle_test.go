package cache_test

// Closed-form and metamorphic oracles for a single cache level. Unlike the
// scalar ≡ batched equivalence tests, none of these compares the kernel
// with itself: each expected miss count follows from the definition of LRU
// or direct mapping alone.

import (
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

// demandMisses runs blocks through a fresh cache with fill-on-miss and
// returns its miss count.
func demandMisses(cfg cache.Config, blocks []uint64) int64 {
	c := cache.New(cfg)
	for _, b := range blocks {
		if !c.Access(b, trace.Heap, trace.Read) {
			c.Fill(b, trace.Heap, false)
		}
	}
	return c.Stats.TotalMisses()
}

// lruConfig shapes an LRU cache of sets x ways 64 B blocks (sets == 1 with
// fullyAssoc selects the fully-associative store).
func lruConfig(sets, ways int, fullyAssoc bool) cache.Config {
	cfg := cache.Config{Name: "oracle", Size: int64(sets*ways) * 64, BlockSize: 64, Assoc: ways}
	if fullyAssoc {
		cfg.Assoc = 0
	}
	return cfg
}

// randomBlocks draws a skewed block stream: a hot set reused often plus a
// long cold tail, so every capacity in the sweep sees both hits and misses.
func randomBlocks(seed uint64, n int) []uint64 {
	rng := stats.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		if rng.Bool(0.7) {
			out[i] = rng.Uint64n(96)
		} else {
			out[i] = rng.Uint64n(4096)
		}
	}
	return out
}

var leafBlocksCache []uint64

// leafBlocks is the block stream of the S1 leaf workload (the trace the
// kernel benchmarks replay, at a smaller budget).
func leafBlocks(t *testing.T) []uint64 {
	t.Helper()
	if leafBlocksCache == nil {
		budget := int64(600_000)
		if testing.Short() {
			budget = 150_000
		}
		r := workload.S1Leaf(16).Build()
		r.Run(2, budget, 1, workload.Sinks{Access: func(a trace.Access) {
			leafBlocksCache = append(leafBlocksCache, a.Addr>>6)
		}})
	}
	return leafBlocksCache
}

// TestLRUStackInclusionOracle checks Mattson's stack inclusion: with the
// set count fixed, an LRU cache with more ways holds a superset of the
// blocks a smaller one holds after every access, so it never misses more.
// TestLRUInclusionProperty covers small fully-associative caches on Zipf
// streams; this covers set-associative shapes and the leaf workload.
func TestLRUStackInclusionOracle(t *testing.T) {
	traces := []struct {
		name   string
		blocks []uint64
	}{
		{"random", randomBlocks(7, 200_000)},
		{"leaf", leafBlocks(t)},
	}
	for _, tr := range traces {
		name, blocks := tr.name, tr.blocks
		for _, sets := range []int{1, 16, 64} {
			prev := int64(-1)
			for ways := 1; ways <= 16; ways++ {
				m := demandMisses(lruConfig(sets, ways, false), blocks)
				if prev >= 0 && m > prev {
					t.Errorf("%s, %d sets: %d ways miss %d times, more than %d ways (%d)",
						name, sets, ways, m, ways-1, prev)
				}
				prev = m
			}
		}
		// The fully-associative store: one set, capacity in blocks.
		prev := int64(-1)
		for _, blocksCap := range []int{1, 4, 16, 64, 256, 1024} {
			m := demandMisses(lruConfig(1, blocksCap, true), blocks)
			if prev >= 0 && m > prev {
				t.Errorf("%s, fully associative: %d blocks miss %d times, more than the next smaller size (%d)",
					name, blocksCap, m, prev)
			}
			prev = m
		}
	}
}

// TestLRUCyclicSweep checks the closed form for a loop over n distinct
// blocks in a fully-associative LRU cache of capacity c: when n <= c only
// the n compulsory misses occur; when n > c every access misses, because
// LRU always evicts the block the loop needs next.
func TestLRUCyclicSweep(t *testing.T) {
	const capBlocks, rounds = 64, 8
	for _, n := range []int{1, capBlocks / 2, capBlocks - 1, capBlocks, capBlocks + 1, 2 * capBlocks} {
		var blocks []uint64
		for r := 0; r < rounds; r++ {
			for b := 0; b < n; b++ {
				blocks = append(blocks, uint64(1000+b))
			}
		}
		want := int64(n)
		if n > capBlocks {
			want = int64(n * rounds)
		}
		if got := demandMisses(lruConfig(1, capBlocks, true), blocks); got != want {
			t.Errorf("cyclic sweep of %d blocks over %d-block LRU: %d misses, want %d", n, capBlocks, got, want)
		}
	}
}

// TestDirectMappedConflictPair alternates two blocks that share a set of a
// direct-mapped cache: each evicts the other, so every access misses. Two
// blocks in different sets miss only once each.
func TestDirectMappedConflictPair(t *testing.T) {
	const sets, rounds = 256, 50
	cfg := lruConfig(sets, 1, false)
	pair := func(a, b uint64) []uint64 {
		var blocks []uint64
		for r := 0; r < rounds; r++ {
			blocks = append(blocks, a, b)
		}
		return blocks
	}
	if got := demandMisses(cfg, pair(5, 5+sets)); got != 2*rounds {
		t.Errorf("conflicting pair: %d misses, want %d", got, 2*rounds)
	}
	if got := demandMisses(cfg, pair(5, 6)); got != 2 {
		t.Errorf("non-conflicting pair: %d misses, want 2", got)
	}
}
