package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// scriptedRunner is a deterministic stub whose emitted stream depends on how
// many times it has run, so tests can distinguish a replay (stream frozen at
// recording time) from a re-execution (stream advances with runner state).
type scriptedRunner struct {
	runs    int
	budgets []int64
	seeds   []uint64
}

func (s *scriptedRunner) Name() string        { return "scripted" }
func (s *scriptedRunner) MemOverlap() float64 { return 0 }

func (s *scriptedRunner) Run(threads int, budget int64, seed uint64, sk Sinks) Stats {
	s.runs++
	s.budgets = append(s.budgets, budget)
	s.seeds = append(s.seeds, seed)
	// Interleave accesses and branches in a fixed but non-trivial pattern;
	// addresses encode (run ordinal, seed, index) so any re-execution is
	// visible in the stream.
	n := int(budget)
	for i := 0; i < n; i++ {
		if sk.Access != nil {
			sk.Access(trace.Access{Addr: uint64(s.runs)<<32 | seed<<16 | uint64(i), Size: 1, Seg: trace.Heap, Thread: uint8(i % threads)})
		}
		if i%3 == 1 && sk.Branch != nil {
			sk.Branch(uint8(i%threads), uint64(i)*8, i%2 == 0)
		}
	}
	return Stats{Instructions: budget * 10, Accesses: budget, Branches: budget / 3}
}

// event is a flattened access-or-branch record for stream comparison.
type event struct{ s string }

func captureSinks(out *[]event) Sinks {
	return Sinks{
		Access: func(a trace.Access) { *out = append(*out, event{fmt.Sprintf("A %s", a)}) },
		Branch: func(t uint8, pc uint64, taken bool) {
			*out = append(*out, event{fmt.Sprintf("B %d %d %v", t, pc, taken)})
		},
	}
}

func TestReplayerMemoizes(t *testing.T) {
	inner := &scriptedRunner{}
	rep := NewReplayer(inner)
	var first, second []event
	st1 := rep.Run(2, 10, 7, captureSinks(&first))
	st2 := rep.Run(2, 10, 7, captureSinks(&second))
	if inner.runs != 1 {
		t.Fatalf("inner ran %d times for one key, want 1", inner.runs)
	}
	if st1 != st2 {
		t.Fatalf("replayed stats differ: %+v vs %+v", st1, st2)
	}
	if st1.Instructions != 100 {
		t.Fatalf("stats not forwarded: %+v", st1)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("stream lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs: %q vs %q", i, first[i].s, second[i].s)
		}
	}
	if rep.Recordings() != 1 {
		t.Fatalf("Recordings = %d, want 1", rep.Recordings())
	}
}

func TestReplayerPreservesInterleaving(t *testing.T) {
	// The reference stream: a fresh runner driven directly.
	var want []event
	(&scriptedRunner{}).Run(2, 9, 3, captureSinks(&want))

	var got []event
	NewReplayer(&scriptedRunner{}).Run(2, 9, 3, captureSinks(&got))
	if len(got) != len(want) {
		t.Fatalf("replay emitted %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: replay %q, direct %q", i, got[i].s, want[i].s)
		}
	}
}

func TestReplayerDistinctKeys(t *testing.T) {
	inner := &scriptedRunner{}
	rep := NewReplayer(inner)
	rep.Run(1, 5, 1, Sinks{})
	rep.Run(1, 5, 2, Sinks{}) // new seed: must re-execute
	rep.Run(1, 6, 1, Sinks{}) // new budget: must re-execute
	rep.Run(1, 5, 1, Sinks{}) // recorded: replay only
	if inner.runs != 3 {
		t.Fatalf("inner ran %d times, want 3", inner.runs)
	}
	if rep.Recordings() != 3 {
		t.Fatalf("Recordings = %d, want 3", rep.Recordings())
	}
}

func TestReplayerTraceView(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	sh, st := rep.Trace(2, 8, 5)
	if st.Accesses != 8 || sh.Len() != 8 {
		t.Fatalf("trace len %d / stats %+v, want 8 accesses", sh.Len(), st)
	}
	// The shared trace equals what a replay emits.
	var replayed []event
	rep.Run(2, 8, 5, captureSinks(&replayed))
	var v trace.Access
	cur := sh.Cursor()
	i := 0
	for cur.Next(&v) {
		i++
	}
	if i != 8 {
		t.Fatalf("cursor drained %d accesses, want 8", i)
	}
}

// TestReplayerConcurrentReplays exercises read-only concurrent replay of one
// recording (meaningful under -race).
func TestReplayerConcurrentReplays(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	rep.Record(4, 200, 9)
	var reference []event
	rep.Run(4, 200, 9, captureSinks(&reference))

	var wg sync.WaitGroup
	diverged := make([]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got []event
			rep.Run(4, 200, 9, captureSinks(&got))
			if len(got) != len(reference) {
				diverged[g] = true
				return
			}
			for i := range got {
				if got[i] != reference[i] {
					diverged[g] = true
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, d := range diverged {
		if d {
			t.Fatalf("goroutine %d replayed a different stream", g)
		}
	}
}

// replayEvents captures the full merged event stream of one replay through
// the given sink shape (scalar or batched).
func replayEvents(t *testing.T, rep *Replayer, batched bool, threads int, budget int64, seed uint64) []event {
	t.Helper()
	var out []event
	s := captureSinks(&out)
	if batched {
		s.AccessBatch = func(b []trace.Access) {
			for _, a := range b {
				out = append(out, event{fmt.Sprintf("A %s", a)})
			}
		}
	}
	rep.Run(threads, budget, seed, s)
	return out
}

// TestReplayerCompressedIdentical is the transport-equivalence proof at the
// replay layer: a compressed Replayer (in-memory blocks, several block
// geometries, and the spill-to-disk path) must emit exactly the event
// stream a flat Replayer emits — scalar and batched, including the
// access/branch interleaving.
func TestReplayerCompressedIdentical(t *testing.T) {
	const threads, budget, seed = 3, 500, 21
	flat := NewReplayer(&scriptedRunner{})
	wantScalar := replayEvents(t, flat, false, threads, budget, seed)
	wantBatched := replayEvents(t, flat, true, threads, budget, seed)
	if len(wantScalar) == 0 || len(wantScalar) != len(wantBatched) {
		t.Fatalf("degenerate reference streams: %d scalar vs %d batched", len(wantScalar), len(wantBatched))
	}
	for i := range wantScalar {
		if wantScalar[i] != wantBatched[i] {
			t.Fatalf("flat scalar/batched diverge at %d", i)
		}
	}

	cases := []StoreConfig{
		{Compress: true},
		{Compress: true, BlockLen: 1},
		{Compress: true, BlockLen: 7},
		{Compress: true, BlockLen: 100_000},
	}
	for _, cfg := range cases {
		name := fmt.Sprintf("blockLen=%d", cfg.BlockLen)
		rep := NewReplayer(&scriptedRunner{})
		rep.SetStore(cfg)
		for pass := 0; pass < 2; pass++ { // second pass replays the memo
			for _, batched := range []bool{false, true} {
				got := replayEvents(t, rep, batched, threads, budget, seed)
				if len(got) != len(wantScalar) {
					t.Fatalf("%s batched=%v pass %d: %d events, want %d", name, batched, pass, len(got), len(wantScalar))
				}
				for i := range got {
					if got[i] != wantScalar[i] {
						t.Fatalf("%s batched=%v pass %d: event %d = %q, want %q", name, batched, pass, i, got[i].s, wantScalar[i].s)
					}
				}
			}
		}
		st := rep.StoreStats()
		if st.Recordings != 1 || st.Accesses != budget || st.StoredBytes <= 0 {
			t.Fatalf("%s: StoreStats = %+v", name, st)
		}
	}

	// Spill-to-disk variant: same stream, bytes resident on disk.
	rep := NewReplayer(&scriptedRunner{})
	rep.SetStore(StoreConfig{Compress: true, BlockLen: 64, SpillDir: t.TempDir()})
	defer rep.Close()
	got := replayEvents(t, rep, true, threads, budget, seed)
	for i := range got {
		if got[i] != wantScalar[i] {
			t.Fatalf("spill: event %d = %q, want %q", i, got[i].s, wantScalar[i].s)
		}
	}
	st := rep.StoreStats()
	if st.SpilledBytes == 0 || st.SpilledBytes != st.StoredBytes {
		t.Fatalf("spill: StoreStats = %+v, want all bytes spilled", st)
	}
}

// TestReplayerCompressedConcurrent replays one compressed (spilled)
// recording from many goroutines; offset-addressed spill reads and
// per-cursor decode windows make this race-free (meaningful under -race).
func TestReplayerCompressedConcurrent(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	rep.SetStore(StoreConfig{Compress: true, BlockLen: 32, SpillDir: t.TempDir()})
	defer rep.Close()
	rep.Record(4, 200, 9)
	var reference []event
	rep.Run(4, 200, 9, captureSinks(&reference))

	var wg sync.WaitGroup
	diverged := make([]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got []event
			rep.Run(4, 200, 9, captureSinks(&got))
			if len(got) != len(reference) {
				diverged[g] = true
				return
			}
			for i := range got {
				if got[i] != reference[i] {
					diverged[g] = true
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, d := range diverged {
		if d {
			t.Fatalf("goroutine %d replayed a different stream", g)
		}
	}
}

// TestSetStoreAfterRecordingPanics pins the SetStore ordering contract.
func TestSetStoreAfterRecordingPanics(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	rep.Record(1, 5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetStore after a recording did not panic")
		}
	}()
	rep.SetStore(StoreConfig{Compress: true})
}

// countingRunner records each (budget, seed) Run call for warmup audits.
type countingRunner struct {
	calls []int64
}

func (c *countingRunner) Name() string        { return "counting" }
func (c *countingRunner) MemOverlap() float64 { return 0 }
func (c *countingRunner) Run(threads int, budget int64, seed uint64, s Sinks) Stats {
	c.calls = append(c.calls, budget)
	return Stats{Instructions: budget}
}

// TestMeasureWarmupSentinels pins the WarmupFraction semantics: 0 selects
// the default 0.25, NoWarmup (negative) suppresses the warmup run entirely,
// and positive fractions (including the calibration runs' 2.0) scale it.
func TestMeasureWarmupSentinels(t *testing.T) {
	measure := func(wf float64) []int64 {
		r := &countingRunner{}
		Measure(r, MeasureConfig{
			Platform: platform.PLT1(),
			Cores:    1, SMTWays: 1, Threads: 1,
			Budget:         1000,
			Seed:           1,
			WarmupFraction: wf,
		})
		return r.calls
	}
	if got := measure(0); len(got) != 2 || got[0] != 250 || got[1] != 1000 {
		t.Fatalf("default warmup runs = %v, want [250 1000]", got)
	}
	if got := measure(0.25); len(got) != 2 || got[0] != 250 {
		t.Fatalf("explicit 0.25 runs = %v, want [250 1000]", got)
	}
	if got := measure(2.0); len(got) != 2 || got[0] != 2000 {
		t.Fatalf("2.0 warmup runs = %v, want [2000 1000]", got)
	}
	if got := measure(NoWarmup); len(got) != 1 || got[0] != 1000 {
		t.Fatalf("NoWarmup runs = %v, want [1000] (no warmup phase)", got)
	}
}

// TestReplayBatchedInterleaving replays one recording through the scalar
// and the batched sinks and requires the merged event sequence — accesses
// and branches in delivery order — to be identical. This pins the batched
// transport's contract: windows split exactly at branch anchors.
func TestReplayBatchedInterleaving(t *testing.T) {
	r := NewReplayer(tinyLeaf().Build())
	type ev struct {
		branch bool
		a      trace.Access
		thread uint8
		pc     uint64
		taken  bool
	}
	var scalar, batched []ev
	st1 := r.Run(1, 100_000, 9, Sinks{
		Access: func(a trace.Access) { scalar = append(scalar, ev{a: a}) },
		Branch: func(th uint8, pc uint64, taken bool) {
			scalar = append(scalar, ev{branch: true, thread: th, pc: pc, taken: taken})
		},
	})
	batches := 0
	st2 := r.Run(1, 100_000, 9, Sinks{
		AccessBatch: func(b []trace.Access) {
			batches++
			for _, a := range b {
				batched = append(batched, ev{a: a})
			}
		},
		// Access must be ignored when AccessBatch is set: make any scalar
		// delivery fail the equivalence below by duplicating events.
		Access: func(a trace.Access) { batched = append(batched, ev{a: a}) },
		Branch: func(th uint8, pc uint64, taken bool) {
			batched = append(batched, ev{branch: true, thread: th, pc: pc, taken: taken})
		},
	})
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("replay stats diverge: %+v vs %+v", st1, st2)
	}
	if len(scalar) == 0 || batches == 0 {
		t.Fatal("degenerate run: no events or no batches delivered")
	}
	if !reflect.DeepEqual(scalar, batched) {
		t.Fatalf("batched replay reorders events relative to scalar replay (%d vs %d events)", len(batched), len(scalar))
	}
}
