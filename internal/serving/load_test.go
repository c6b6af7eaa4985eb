package serving

import (
	"math"
	"testing"

	"searchmem/internal/obs"
	"searchmem/internal/stats"
)

// healthyFaultFree builds a cluster whose leaves support outage injection
// (FaultyExecutor) but inject no random faults, so scenario tests can
// attribute every partial result to the timeline.
func healthyFaultFree(cfg Config, n int, seed uint64) *Cluster {
	execs := make([]Executor, n)
	for i := range execs {
		execs[i] = &FaultyExecutor{
			Inner: NewSyntheticExecutor(uint32(i), cfg.TopK),
			Seed:  seed + uint64(i)*7919,
		}
	}
	cfg.Leaves = n
	return NewCluster(cfg, execs)
}

// scanLoad is an independent reference for RunLoad's event-heap engine: a
// per-query O(clients) linear min-scan over client completion times that
// issues through Serve. On equal times the first (lowest-indexed) client
// wins, the order the heap's (time, id) key must reproduce.
func scanLoad(c *Cluster, clients, queriesPerClient, vocabSize int, skew float64, seed uint64) LoadStats {
	hist := stats.NewHistogram(8)
	var partials int64
	type client struct {
		qsel   *stats.Zipf
		nextNS float64 // virtual time at which the client's next query issues
		issued int
	}
	cls := make([]client, clients)
	for cl := range cls {
		rng := stats.NewRNG(seed + uint64(cl)*977)
		cls[cl].qsel = stats.NewZipf(rng.Split(), uint64(vocabSize), skew)
	}
	// Serve charges congestion from the live in-flight count; park the
	// other clients' standing queries there so each sequential call sees
	// the full closed-loop occupancy.
	c.mu.Lock()
	c.inflight = int64(clients) - 1
	c.mu.Unlock()
	for done := 0; done < clients*queriesPerClient; done++ {
		cl := -1
		for i := range cls {
			if cls[i].issued >= queriesPerClient {
				continue
			}
			if cl < 0 || cls[i].nextNS < cls[cl].nextNS {
				cl = i
			}
		}
		qid := cls[cl].qsel.Next()
		r := c.Serve(Query{Terms: []uint32{uint32(qid), uint32(qid>>3) % uint32(vocabSize)}})
		hist.Add(r.LatencyNS)
		if r.Partial {
			partials++
		}
		cls[cl].nextNS += r.LatencyNS
		cls[cl].issued++
	}
	c.mu.Lock()
	c.inflight = 0
	c.mu.Unlock()

	mean := hist.Mean()
	st := LoadStats{
		Queries:        c.Queries,
		CacheHits:      c.CacheHits,
		PartialResults: partials,
		MeanLatencyNS:  mean,
		P50NS:          hist.Quantile(0.50),
		P95NS:          hist.Quantile(0.95),
		P99NS:          hist.Quantile(0.99),
	}
	if mean > 0 {
		st.QPS = float64(clients) / (mean * 1e-9)
	}
	return st
}

// TestRunLoadMatchesScanEngine is the event-heap engine's acceptance test:
// RunLoad (heap + serve path) must be bit-exact with scanLoad (linear
// min-scan + Serve) — same LoadStats and the same Metrics snapshot, per
// config, per client count.
func TestRunLoadMatchesScanEngine(t *testing.T) {
	hedged := DefaultConfig()
	hedged.LeafDeadlineNS = 8e6
	hedged.HedgeDelayNS = 4e6
	cases := []struct {
		name string
		mk   func() *Cluster
	}{
		{"healthy-cached", func() *Cluster { return testCluster(4096) }},
		{"faulty-hedged", func() *Cluster { return faultyCluster(hedged, 12, 7) }},
	}
	clientCounts := []int{1, 8, 97}
	if !testing.Short() && !raceDetectorOn {
		clientCounts = append(clientCounts, 10000)
	}
	for _, cc := range cases {
		for _, clients := range clientCounts {
			qpc := 50
			switch {
			case clients >= 10000:
				qpc = 2
			case clients >= 97:
				qpc = 4
			}
			ca := cc.mk()
			a := RunLoad(ca, clients, qpc, 400, 1.1, 9)
			cb := cc.mk()
			b := scanLoad(cb, clients, qpc, 400, 1.1, 9)
			if a != b {
				t.Fatalf("%s clients=%d: heap engine %+v != scan engine %+v", cc.name, clients, a, b)
			}
			if ma, mb := ca.Metrics(), cb.Metrics(); ma != mb {
				t.Fatalf("%s clients=%d: heap metrics %+v != scan metrics %+v", cc.name, clients, ma, mb)
			}
		}
	}
}

// TestServeSerialMatchesServe pins Serve — traced, returning caller-owned
// copies — against the untraced pooled serveSerial query by query: same
// docs, scores, latency, and flags for the same cluster state, including
// cache hits, hedges, and dedup, and the same metrics afterwards. Tracing
// must observe the serve path without changing it.
func TestServeSerialMatchesServe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 64
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	cfg.LeafCapacity = 32
	traced := cfg
	traced.Tracer = obs.NewTracer()
	ca := faultyCluster(traced, 12, 3)
	cb := faultyCluster(cfg, 12, 3)
	cb.driveMu.Lock()
	defer cb.driveMu.Unlock()
	cb.ensureScratch()

	rng := stats.NewRNG(41)
	zipf := stats.NewZipf(rng.Split(), 300, 1.1)
	var prev Result
	for q := 0; q < 400; q++ {
		qid := zipf.Next()
		terms := []uint32{uint32(qid), uint32(qid>>3) % 300}
		ra := ca.Serve(Query{Terms: terms})
		rb := cb.serveSerial(terms)
		if ra.LatencyNS != rb.LatencyNS || ra.Partial != rb.Partial ||
			ra.FromCache != rb.FromCache || ra.LeavesAnswered != rb.LeavesAnswered {
			t.Fatalf("query %d: Serve %+v != serveSerial %+v", q, ra, rb)
		}
		if len(ra.Docs) != len(rb.Docs) {
			t.Fatalf("query %d: result sizes %d != %d", q, len(ra.Docs), len(rb.Docs))
		}
		for i := range ra.Docs {
			if ra.Docs[i] != rb.Docs[i] || ra.Scores[i] != rb.Scores[i] {
				t.Fatalf("query %d result %d: (%d,%v) != (%d,%v)",
					q, i, ra.Docs[i], ra.Scores[i], rb.Docs[i], rb.Scores[i])
			}
		}
		// Serve's result is the caller's: the next query must not
		// overwrite it through the shared scratch.
		if len(prev.Docs) > 0 && len(ra.Docs) > 0 && &prev.Docs[0] == &ra.Docs[0] {
			t.Fatalf("query %d: Serve returned a slice aliasing the previous result", q)
		}
		prev = ra
	}
	if ma, mb := ca.Metrics(), cb.Metrics(); ma != mb {
		t.Fatalf("metrics diverged: %+v != %+v", ma, mb)
	}
	if n := len(traced.Tracer.Traces()); n != 400 {
		t.Fatalf("traced cluster recorded %d traces, want 400", n)
	}
}

// TestRunLoadDeterministicAtScale re-runs the determinism pin at a client
// count where the old scan driver would be quadratic: two fresh runs at 10k
// clients must produce identical stats.
func TestRunLoadDeterministicAtScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	a := RunLoad(faultyCluster(cfg, 12, 3), 10000, 2, 400, 1.1, 9)
	b := RunLoad(faultyCluster(cfg, 12, 3), 10000, 2, 400, 1.1, 9)
	if a != b {
		t.Fatalf("10k-client runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Queries != 20000 {
		t.Fatalf("Queries = %d, want 20000", a.Queries)
	}
}

// TestClosedLoopScenarioMatchesRunLoad guards the wrapper: a closed-loop
// Scenario is RunLoad.
func TestClosedLoopScenarioMatchesRunLoad(t *testing.T) {
	a := RunLoad(testCluster(256), 16, 30, 200, 1.1, 5)
	fs := RunScenario(testCluster(256), Scenario{
		Clients: 16, QueriesPerClient: 30, VocabSize: 200, Skew: 1.1, Seed: 5,
	})
	if a != fs.LoadStats {
		t.Fatalf("RunLoad %+v != closed-loop RunScenario %+v", a, fs.LoadStats)
	}
	if fs.Served != 480 || fs.PeakInflight != 16 || fs.OfferedQPS != 0 {
		t.Fatalf("closed-loop fleet accounting wrong: %+v", fs)
	}
}

// TestScenarioDeterministic runs the full open-loop mix — diurnal curve,
// flash-crowd burst, cache flush, correlated outage — twice on fresh
// clusters and requires byte-identical FleetStats and Metrics.
func TestScenarioDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 512
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	cfg.LeafCapacity = 64
	sc := Scenario{
		Clients:   500,
		VocabSize: 400,
		Skew:      1.1,
		Seed:      17,
		Arrival: &RateCurve{
			BaseQPS:          2000,
			DiurnalAmplitude: 0.5,
			DiurnalPeriodNS:  4e8,
			Bursts:           []Burst{{StartNS: 1e8, EndNS: 1.5e8, Factor: 3}},
		},
		DurationNS: 5e8,
		Events: []FleetEvent{
			{AtNS: 2e8, FlushCache: true},
			{AtNS: 3e8, OutageLeaf: 0, OutageLeaves: 4, OutageDurationNS: 5e7},
		},
	}
	ca := faultyCluster(cfg, 12, 3)
	a := RunScenario(ca, sc)
	cb := faultyCluster(cfg, 12, 3)
	b := RunScenario(cb, sc)
	if a != b {
		t.Fatalf("scenario runs diverged:\n%+v\n%+v", a, b)
	}
	if ma, mb := ca.Metrics(), cb.Metrics(); ma != mb {
		t.Fatalf("scenario metrics diverged:\n%+v\n%+v", ma, mb)
	}
	if a.Served == 0 || a.EventsProcessed <= a.Served || a.DurationNS <= 0 {
		t.Fatalf("implausible fleet accounting: %+v", a)
	}
}

// TestRateCurveAt checks the arrival-rate model point by point: diurnal
// peak and trough, multiplicative burst stacking, and the rate floor.
func TestRateCurveAt(t *testing.T) {
	rc := &RateCurve{BaseQPS: 1000, DiurnalAmplitude: 0.4, DiurnalPeriodNS: 4e9}
	if got := rc.At(0); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("At(0) = %v, want 1000", got)
	}
	if got := rc.At(1e9); math.Abs(got-1400) > 1e-6 { // sin peak at T/4
		t.Fatalf("At(T/4) = %v, want 1400", got)
	}
	if got := rc.At(3e9); math.Abs(got-600) > 1e-6 { // trough at 3T/4
		t.Fatalf("At(3T/4) = %v, want 600", got)
	}
	rc.Bursts = []Burst{
		{StartNS: 0.9e9, EndNS: 1.1e9, Factor: 2},
		{StartNS: 1e9, EndNS: 1.2e9, Factor: 3},
	}
	if got := rc.At(1e9); math.Abs(got-1400*6) > 1e-5 {
		t.Fatalf("stacked bursts At(T/4) = %v, want %v", got, 1400*6.0)
	}
	single := 1000 * (1 + 0.4*math.Sin(2*math.Pi*0.95e9/4e9)) * 2
	if got := rc.At(0.95e9); math.Abs(got-single) > 1e-6 {
		t.Fatalf("single burst At = %v, want %v", got, single)
	}
	floor := &RateCurve{BaseQPS: 1, DiurnalAmplitude: 0.99999999, DiurnalPeriodNS: 4e9}
	if got := floor.At(3e9); got < 1e-6 {
		t.Fatalf("rate floor violated: %v", got)
	}
}

// TestOpenLoopOverloadInflatesTail drives the same cluster shape at an
// offered load far beyond leaf capacity and checks that the open loop lets
// queueing feedback through: higher peak occupancy and a worse tail than
// the uncongested run.
func TestOpenLoopOverloadInflatesTail(t *testing.T) {
	mk := func(qps float64) FleetStats {
		cfg := DefaultConfig()
		cfg.CacheSlots = 0 // every query does leaf work
		cfg.LeafCapacity = 40
		return RunScenario(NewCluster(cfg, nil), Scenario{
			Clients:    300,
			VocabSize:  400,
			Skew:       1.1,
			Seed:       11,
			Arrival:    &RateCurve{BaseQPS: qps},
			DurationNS: 3e8,
		})
	}
	calm := mk(200)
	hot := mk(8000)
	if hot.PeakInflight <= calm.PeakInflight || hot.PeakInflight < 5 {
		t.Fatalf("overload PeakInflight %d not above calm %d", hot.PeakInflight, calm.PeakInflight)
	}
	if hot.P99NS <= calm.P99NS {
		t.Fatalf("overload P99 %.0f not above calm %.0f", hot.P99NS, calm.P99NS)
	}
	if calm.OfferedQPS != 200 || hot.OfferedQPS != 8000 {
		t.Fatalf("OfferedQPS not recorded: %v / %v", calm.OfferedQPS, hot.OfferedQPS)
	}
}

// TestFlushCacheColdRestart checks both the direct API and the scenario
// event: a flush makes a previously cached query miss, and a flush-heavy
// timeline serves fewer cache hits than the same run without it.
func TestFlushCacheColdRestart(t *testing.T) {
	c := testCluster(256)
	terms := []uint32{1, 2}
	c.Serve(Query{Terms: terms})
	if r := c.Serve(Query{Terms: terms}); !r.FromCache {
		t.Fatal("second serve should hit the cache")
	}
	c.FlushCache()
	if r := c.Serve(Query{Terms: terms}); r.FromCache {
		t.Fatal("serve after FlushCache should miss")
	}

	sc := Scenario{Clients: 50, QueriesPerClient: 40, VocabSize: 100, Skew: 1.2, Seed: 23}
	warm := RunScenario(testCluster(1024), sc)
	sc.Events = []FleetEvent{
		{AtNS: 1e7, FlushCache: true},
		{AtNS: 2e7, FlushCache: true},
		{AtNS: 3e7, FlushCache: true},
	}
	cold := RunScenario(testCluster(1024), sc)
	if cold.CacheHits >= warm.CacheHits {
		t.Fatalf("flush timeline should reduce hits: cold %d >= warm %d", cold.CacheHits, warm.CacheHits)
	}
}

// TestOutageWindowDegrades checks correlated leaf failure: with hedging off
// and no random faults, partial results appear exactly because of the
// outage window, and service recovers after it.
func TestOutageWindowDegrades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 0
	sc := Scenario{Clients: 20, QueriesPerClient: 50, VocabSize: 200, Skew: 1.1, Seed: 7}
	clean := RunScenario(healthyFaultFree(cfg, 12, 1), sc)
	if clean.PartialResults != 0 {
		t.Fatalf("fault-free run produced %d partials", clean.PartialResults)
	}
	sc.Events = []FleetEvent{{AtNS: 2e7, OutageLeaf: 0, OutageLeaves: 6, OutageDurationNS: 4e7}}
	hit := RunScenario(healthyFaultFree(cfg, 12, 1), sc)
	if hit.PartialResults == 0 {
		t.Fatal("outage window produced no partial results")
	}
	if hit.PartialResults >= hit.Served {
		t.Fatalf("no recovery after outage: %d partials of %d served", hit.PartialResults, hit.Served)
	}
}

// TestSetLeafDown covers the administrative hook's edges: only
// outage-capable executors accept it, out-of-range leaves are rejected.
func TestSetLeafDown(t *testing.T) {
	c := healthyFaultFree(DefaultConfig(), 12, 1)
	if !c.SetLeafDown(0, true) || !c.SetLeafDown(11, true) {
		t.Fatal("outage-capable leaf rejected SetLeafDown")
	}
	if c.SetLeafDown(-1, true) || c.SetLeafDown(12, true) {
		t.Fatal("out-of-range leaf accepted SetLeafDown")
	}
	plain := testCluster(0)
	if plain.SetLeafDown(0, true) {
		t.Fatal("plain synthetic leaf accepted SetLeafDown")
	}
}

// TestBufferedExecutorMatchesSearch pins SearchBuf against Search /
// SearchErr call by call on both executor types: identical results,
// latencies (internal jitter RNG advancing in lockstep), and errors.
func TestBufferedExecutorMatchesSearch(t *testing.T) {
	mkSyn := func() *SyntheticExecutor {
		e := NewSyntheticExecutor(3, 10)
		e.BaseLatencyNS = 1e6
		e.PerTermNS = 1e5
		return e
	}
	a, b := mkSyn(), mkSyn()
	docs := make([]uint32, 10)
	scores := make([]float32, 10)
	for q := 0; q < 200; q++ {
		terms := []uint32{uint32(q * 31), uint32(q), uint32(q % 7)}
		d, s, lat := a.Search(terms)
		n, blat, err := b.SearchBuf(terms, docs, scores)
		if err != nil || n != len(d) || lat != blat {
			t.Fatalf("query %d: SearchBuf (n=%d lat=%v err=%v) != Search (n=%d lat=%v)", q, n, blat, err, len(d), lat)
		}
		for i := range d {
			if d[i] != docs[i] || s[i] != scores[i] {
				t.Fatalf("query %d result %d: (%d,%v) != (%d,%v)", q, i, docs[i], scores[i], d[i], s[i])
			}
		}
	}

	mkFaulty := func() *FaultyExecutor {
		return &FaultyExecutor{
			Inner:    mkSyn(),
			SlowProb: 0.2, SlowFactor: 8,
			FailProb: 0.1,
			FlapProb: 0.1,
			Seed:     99,
		}
	}
	fa, fb := mkFaulty(), mkFaulty()
	var failures int
	for q := 0; q < 300; q++ {
		terms := []uint32{uint32(q * 131), uint32(q)}
		d, s, lat, errA := fa.SearchErr(terms)
		n, blat, errB := fb.SearchBuf(terms, docs, scores)
		if (errA == nil) != (errB == nil) || lat != blat {
			t.Fatalf("query %d: SearchBuf (lat=%v err=%v) != SearchErr (lat=%v err=%v)", q, blat, errB, lat, errA)
		}
		if errA != nil {
			failures++
			continue
		}
		if n != len(d) {
			t.Fatalf("query %d: n=%d want %d", q, n, len(d))
		}
		for i := range d {
			if d[i] != docs[i] || s[i] != scores[i] {
				t.Fatalf("query %d result %d mismatch", q, i)
			}
		}
	}
	if failures == 0 {
		t.Fatal("fault injection never fired; test not covering error paths")
	}

	// An administratively down executor fails fast on both interfaces
	// without consuming fault draws.
	fa.SetDown(true)
	fb.SetDown(true)
	if _, _, _, err := fa.SearchErr([]uint32{1}); err == nil {
		t.Fatal("down executor served SearchErr")
	}
	if _, _, err := fb.SearchBuf([]uint32{1}, docs, scores); err == nil {
		t.Fatal("down executor served SearchBuf")
	}
	fa.SetDown(false)
	fb.SetDown(false)
	_, _, lat, errA := fa.SearchErr([]uint32{4, 5})
	_, blat, errB := fb.SearchBuf([]uint32{4, 5}, docs, scores)
	if lat != blat || (errA == nil) != (errB == nil) {
		t.Fatal("streams diverged after an outage window")
	}
}

// TestCacheRingEviction covers the FIFO ring across wrap-around: oldest
// entries evict in insertion order and live count never exceeds slots.
func TestCacheRingEviction(t *testing.T) {
	s := newCacheServer(4)
	one := []uint32{1}
	sc := []float32{1}
	for tag := uint64(1); tag <= 4; tag++ {
		s.put(tag, one, sc)
	}
	s.put(5, one, sc) // evicts 1
	s.put(6, one, sc) // evicts 2
	for _, tag := range []uint64{3, 4, 5, 6} {
		if _, _, ok := cacheGet(s, tag); !ok {
			t.Fatalf("tag %d missing after wrap-around", tag)
		}
	}
	for _, tag := range []uint64{1, 2} {
		if _, _, ok := cacheGet(s, tag); ok {
			t.Fatalf("tag %d should have been evicted", tag)
		}
	}
	if s.count != 4 || len(s.data) != 4 {
		t.Fatalf("count=%d len(data)=%d, want 4/4", s.count, len(s.data))
	}
}

// TestCacheRingBoundedUnderChurn is the regression test for the eviction
// leak the ring replaced (`order = order[1:]` grew the backing array
// without bound): sustained churn must leave the ring at its fixed size.
func TestCacheRingBoundedUnderChurn(t *testing.T) {
	s := newCacheServer(8)
	docs := []uint32{1, 2, 3}
	scores := []float32{3, 2, 1}
	for tag := uint64(0); tag < 100000; tag++ {
		s.put(tag, docs, scores)
	}
	if len(s.order) != 8 || cap(s.order) != 8 {
		t.Fatalf("order ring grew: len=%d cap=%d, want 8/8", len(s.order), cap(s.order))
	}
	if s.count != 8 || len(s.data) != 8 {
		t.Fatalf("count=%d len(data)=%d, want 8/8", s.count, len(s.data))
	}
	for tag := uint64(100000 - 8); tag < 100000; tag++ {
		if _, _, ok := cacheGet(s, tag); !ok {
			t.Fatalf("recent tag %d missing", tag)
		}
	}
}

// TestCacheOverwriteKeepsPosition: re-putting a live tag must not consume a
// ring slot or refresh its FIFO position.
func TestCacheOverwriteKeepsPosition(t *testing.T) {
	s := newCacheServer(2)
	s.put(10, []uint32{1}, []float32{1})
	s.put(20, []uint32{2}, []float32{2})
	s.put(10, []uint32{9}, []float32{9}) // overwrite, still the oldest
	if d, _, ok := cacheGet(s, 10); !ok || d[0] != 9 {
		t.Fatalf("overwrite not visible: %v %v", d, ok)
	}
	s.put(30, []uint32{3}, []float32{3}) // evicts 10, the oldest
	if _, _, ok := cacheGet(s, 10); ok {
		t.Fatal("overwritten tag should still evict first")
	}
	if _, _, ok := cacheGet(s, 20); !ok {
		t.Fatal("tag 20 evicted out of order")
	}
	if s.count != 2 || len(s.data) != 2 {
		t.Fatalf("count=%d len(data)=%d, want 2/2", s.count, len(s.data))
	}
}

// TestCacheFlush: flush empties the tier in place and it keeps working.
func TestCacheFlush(t *testing.T) {
	s := newCacheServer(4)
	for tag := uint64(1); tag <= 4; tag++ {
		s.put(tag, []uint32{uint32(tag)}, []float32{1})
	}
	s.flush()
	if s.count != 0 || len(s.data) != 0 {
		t.Fatalf("flush left count=%d len(data)=%d", s.count, len(s.data))
	}
	if _, _, ok := cacheGet(s, 2); ok {
		t.Fatal("entry survived flush")
	}
	s.put(7, []uint32{7}, []float32{7})
	if d, _, ok := cacheGet(s, 7); !ok || d[0] != 7 {
		t.Fatal("cache unusable after flush")
	}
}

// TestRunScenarioPanics pins the validation contract.
func TestRunScenarioPanics(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"zero clients", Scenario{VocabSize: 10, Skew: 1.1, QueriesPerClient: 1}},
		{"zero vocab", Scenario{Clients: 1, Skew: 1.1, QueriesPerClient: 1}},
		{"zero skew", Scenario{Clients: 1, VocabSize: 10, QueriesPerClient: 1}},
		{"closed no budget", Scenario{Clients: 1, VocabSize: 10, Skew: 1.1}},
		{"open no horizon", Scenario{Clients: 1, VocabSize: 10, Skew: 1.1, Arrival: &RateCurve{BaseQPS: 10}}},
		{"open no rate", Scenario{Clients: 1, VocabSize: 10, Skew: 1.1, Arrival: &RateCurve{}, DurationNS: 1e9}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: RunScenario did not panic", tc.name)
				}
			}()
			RunScenario(testCluster(0), tc.sc)
		}()
	}
}
