package serving

import (
	"math"
	"sort"

	"searchmem/internal/stats"
)

// loadEngine is the event-driven core of RunLoad and RunScenario: client
// state lives in preallocated struct-of-arrays (~36 bytes per client, so a
// million modeled users fit in ~36 MB), and pending issue events sit in an
// indexed binary min-heap of client ids keyed by (next issue time, id).
// Pop and push are O(log n), and the whole per-event path — pop, Zipf draw, term synthesis, histogram
// add, push — is allocation-free (//lint:hot kernels plus the ZeroAlloc
// oracle in alloc_test.go).
type loadEngine struct {
	next   []float64   // virtual time of each client's next issue event
	rng    []stats.RNG // per-client random stream (query popularity, think time)
	issued []int32     // queries issued so far per client
	heap   []int32     // binary min-heap of client ids, keyed by next[id]
	hn     int         // live heap size
	shape  *stats.ZipfShape
	vocab  uint32
	terms  [2]uint32 // scratch for the current query's term tuple
}

// newLoadEngine seeds per-client state: client cl's popularity stream is
// NewRNG(seed+cl*977).Split(), computed through a stack RNG so construction
// allocates only the four arrays.
func newLoadEngine(clients, vocabSize int, skew float64, seed uint64) *loadEngine {
	e := &loadEngine{
		next:   make([]float64, clients),
		rng:    make([]stats.RNG, clients),
		issued: make([]int32, clients),
		heap:   make([]int32, clients),
		shape:  stats.NewZipfShape(uint64(vocabSize), skew),
		vocab:  uint32(vocabSize),
	}
	var seeder stats.RNG
	for cl := 0; cl < clients; cl++ {
		seeder.Seed(seed + uint64(cl)*977)
		e.rng[cl].Seed(seeder.Uint64())
		e.heap[cl] = int32(cl)
	}
	// All keys are zero and ids increase slot to slot, so the array is
	// already a valid min-heap under the (key, id) order.
	e.hn = clients
	return e
}

// less orders pending events by (issue time, client id): on equal times
// the lowest-indexed client goes first, so the issue sequence is a total
// order fixed by the seed.
//
//lint:hot
func (e *loadEngine) less(a, b int32) bool {
	if e.next[a] != e.next[b] {
		return e.next[a] < e.next[b]
	}
	return a < b
}

// siftDown restores the heap property below slot i.
//
//lint:hot
func (e *loadEngine) siftDown(i int) {
	id := e.heap[i]
	for {
		l := 2*i + 1
		if l >= e.hn {
			break
		}
		if r := l + 1; r < e.hn && e.less(e.heap[r], e.heap[l]) {
			l = r
		}
		if !e.less(e.heap[l], id) {
			break
		}
		e.heap[i] = e.heap[l]
		i = l
	}
	e.heap[i] = id
}

// popMin removes and returns the client with the earliest pending event.
//
//lint:hot
func (e *loadEngine) popMin() int32 {
	top := e.heap[0]
	e.hn--
	if e.hn > 0 {
		e.heap[0] = e.heap[e.hn]
		e.siftDown(0)
	}
	return top
}

// push re-enqueues a client after its next-event time changed.
//
//lint:hot
func (e *loadEngine) push(id int32) {
	i := e.hn
	e.hn++
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(id, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = id
}

// heapify rebuilds the heap over all clients in O(n) after their keys
// changed wholesale (open-loop first arrivals).
func (e *loadEngine) heapify() {
	for i := range e.heap {
		e.heap[i] = int32(i)
	}
	e.hn = len(e.heap)
	for i := e.hn/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// drawTerms synthesizes the client's next query: a Zipf-popular query id
// expanded into a two-term tuple.
//
//lint:hot
func (e *loadEngine) drawTerms(cl int32) []uint32 {
	qid := e.shape.Next(&e.rng[cl])
	e.terms[0] = uint32(qid)
	e.terms[1] = uint32(qid>>3) % e.vocab
	return e.terms[:]
}

// RunLoad drives the cluster with a closed-loop load of clients issuing
// queries drawn Zipf-popular from vocabSize (popular queries repeat, which
// is what makes the cache tier effective). The closed loop runs in virtual
// time: every client always has exactly one query in flight (zero think
// time), so queries are issued one at a time in virtual-completion order
// and the cluster is told the standing occupancy is `clients`. The query
// interleaving — and with it every executor's service-jitter RNG draw
// sequence — is therefore a pure function of the seed, never of goroutine
// scheduling, for any client count (DESIGN.md §8).
//
// The driver is the event-heap engine (DESIGN.md §16), O(log n) per issued
// query; TestRunLoadMatchesScanEngine pins it bit-exact against a linear
// min-scan reference driver, and TestServeGolden pins its LoadStats and
// metrics.
func RunLoad(c *Cluster, clients, queriesPerClient, vocabSize int, skew float64, seed uint64) LoadStats {
	if clients <= 0 || queriesPerClient <= 0 || vocabSize <= 0 {
		panic("serving: load parameters must be positive")
	}
	fs := RunScenario(c, Scenario{
		Clients:          clients,
		QueriesPerClient: queriesPerClient,
		VocabSize:        vocabSize,
		Skew:             skew,
		Seed:             seed,
	})
	return fs.LoadStats
}

// Burst multiplies a RateCurve's arrival rate by Factor inside
// [StartNS, EndNS) — a flash crowd.
type Burst struct {
	StartNS, EndNS float64
	Factor         float64
}

// RateCurve is a time-varying arrival-rate model for open-loop scenarios:
// a base rate modulated by a sinusoidal diurnal cycle and stacked
// multiplicative burst windows.
type RateCurve struct {
	// BaseQPS is the mean offered load in queries per virtual second.
	BaseQPS float64
	// DiurnalAmplitude in [0, 1) scales a sine modulation with period
	// DiurnalPeriodNS: rate(t) = BaseQPS * (1 + A*sin(2πt/T)). Zero
	// amplitude or period disables it.
	DiurnalAmplitude float64
	DiurnalPeriodNS  float64
	// Bursts are flash-crowd windows; overlapping windows stack
	// multiplicatively.
	Bursts []Burst
}

// At returns the offered rate in queries per second at virtual time t.
func (rc *RateCurve) At(tNS float64) float64 {
	r := rc.BaseQPS
	if rc.DiurnalAmplitude != 0 && rc.DiurnalPeriodNS > 0 {
		r *= 1 + rc.DiurnalAmplitude*math.Sin(2*math.Pi*tNS/rc.DiurnalPeriodNS)
	}
	for i := range rc.Bursts {
		b := &rc.Bursts[i]
		if tNS >= b.StartNS && tNS < b.EndNS {
			r *= b.Factor
		}
	}
	if r < 1e-6 {
		r = 1e-6 // rate floor keeps interarrival draws finite
	}
	return r
}

// FleetEvent is one scheduled operational event on a scenario timeline.
type FleetEvent struct {
	// AtNS is the virtual time at which the event fires (applied before
	// the first query issued at or after it).
	AtNS float64
	// FlushCache empties the cache tier — a shard reload / cold restart.
	FlushCache bool
	// OutageLeaves > 0 marks leaves [OutageLeaf, OutageLeaf+OutageLeaves)
	// administratively down for OutageDurationNS — a correlated failure
	// such as a rack or a whole parent going dark. Executors must support
	// outage injection (OutageExecutor, e.g. FaultyExecutor); others are
	// skipped silently.
	OutageLeaf, OutageLeaves int
	OutageDurationNS         float64
}

// Scenario describes one fleet load run for RunScenario.
type Scenario struct {
	// Clients is the modeled user population.
	Clients int
	// QueriesPerClient bounds each client's issue budget. Closed loop
	// (Arrival == nil) requires it > 0; open loop treats 0 as unlimited,
	// with the horizon as the only bound.
	QueriesPerClient int
	// VocabSize and Skew shape query popularity (Zipf), as in RunLoad.
	VocabSize int
	Skew      float64
	// Seed makes the run reproducible; same-cluster-state same-scenario
	// runs are byte-identical.
	Seed uint64
	// Arrival switches the loop open: clients issue by a Poisson process
	// following the rate curve (per-client exponential interarrivals with
	// mean clients/rate(t)), decoupled from completions, and the
	// congestion model is fed the live in-flight count. nil keeps the
	// closed loop, bit-identical to RunLoad.
	Arrival *RateCurve
	// DurationNS is the open-loop horizon in virtual time (required with
	// Arrival): no queries issue at or after it.
	DurationNS float64
	// Events is the operational timeline (cache flushes, outage windows).
	Events []FleetEvent
}

// FleetStats extends LoadStats with fleet-scenario accounting.
type FleetStats struct {
	LoadStats
	// Served counts the queries this run issued (LoadStats.Queries is the
	// cluster's cumulative counter, which may span earlier runs).
	Served int64
	// EventsProcessed counts engine events: query issues, open-loop
	// completion pops, and timeline actions.
	EventsProcessed int64
	// DurationNS is the virtual time spanned by the run (latest query
	// completion).
	DurationNS float64
	// PeakInflight is the maximum concurrent occupancy the congestion
	// model saw (always Clients for closed loops).
	PeakInflight int64
	// OfferedQPS is the configured mean arrival rate (0 for closed loops,
	// where load is completion-driven).
	OfferedQPS float64
}

// action is one expanded timeline step; an outage window becomes a down
// action and an up action.
type action struct {
	at          float64
	kind        uint8
	leaf, count int
}

// Same-instant ordering: flushes first, then recoveries, then outages —
// so a window starting exactly when another ends leaves the leaves down.
const (
	actFlush = iota
	actUp
	actDown
)

// buildTimeline expands and deterministically orders the scenario events.
func buildTimeline(events []FleetEvent) []action {
	var acts []action
	for _, ev := range events {
		if ev.FlushCache {
			acts = append(acts, action{at: ev.AtNS, kind: actFlush})
		}
		if ev.OutageLeaves > 0 {
			acts = append(acts, action{at: ev.AtNS, kind: actDown, leaf: ev.OutageLeaf, count: ev.OutageLeaves})
			acts = append(acts, action{at: ev.AtNS + ev.OutageDurationNS, kind: actUp, leaf: ev.OutageLeaf, count: ev.OutageLeaves})
		}
	}
	sort.Slice(acts, func(i, j int) bool {
		if acts[i].at != acts[j].at {
			return acts[i].at < acts[j].at
		}
		if acts[i].kind != acts[j].kind {
			return acts[i].kind < acts[j].kind
		}
		return acts[i].leaf < acts[j].leaf
	})
	return acts
}

// applyAction executes one timeline step against the cluster.
func (c *Cluster) applyAction(a action) {
	switch a.kind {
	case actFlush:
		c.FlushCache()
	case actDown, actUp:
		for i := 0; i < a.count; i++ {
			c.SetLeafDown(a.leaf+i, a.kind == actDown)
		}
	}
}

// compPush and compPop maintain a plain min-heap of completion times: the
// open-loop engine's view of which issued queries are still in flight.
func compPush(h *[]float64, v float64) {
	*h = append(*h, v)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func compPop(h *[]float64) {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	*h = a[:n]
	a = a[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && a[r] < a[l] {
			l = r
		}
		if a[l] >= a[i] {
			break
		}
		a[i], a[l] = a[l], a[i]
		i = l
	}
}

// RunScenario drives the cluster through one fleet scenario on the
// event-driven engine. Closed-loop scenarios (Arrival == nil) issue queries
// in exactly the order RunLoad always has; open-loop scenarios issue by the
// rate curve with congestion fed by the live in-flight count, so offered
// load beyond capacity visibly inflates the tail. The run is
// single-threaded in virtual time: results are a pure function of (cluster
// state, scenario), independent of GOMAXPROCS and scheduling (DESIGN.md
// §16).
func RunScenario(c *Cluster, sc Scenario) FleetStats {
	if sc.Clients <= 0 || sc.VocabSize <= 0 || sc.Skew <= 0 {
		panic("serving: scenario requires positive clients, vocab size, and skew")
	}
	open := sc.Arrival != nil
	if open {
		if sc.DurationNS <= 0 || sc.Arrival.BaseQPS <= 0 {
			panic("serving: open-loop scenario requires a positive horizon and base rate")
		}
	} else if sc.QueriesPerClient <= 0 {
		panic("serving: closed-loop scenario requires QueriesPerClient > 0")
	}

	c.driveMu.Lock()
	defer c.driveMu.Unlock()
	c.ensureScratch()

	e := newLoadEngine(sc.Clients, sc.VocabSize, sc.Skew, sc.Seed)
	acts := buildTimeline(sc.Events)
	hist := stats.NewHistogram(8)
	var partials, events, served, peak int64
	var lastNS float64
	inflight := 0
	var comp []float64

	if open {
		// Stagger first arrivals by the t=0 rate; each draw comes from the
		// owning client's stream, ahead of its popularity draws.
		r0 := sc.Arrival.At(0)
		for cl := range e.next {
			e.next[cl] = e.rng[cl].Exponential(float64(sc.Clients) / r0 * 1e9)
		}
		e.heapify()
		// Sized for the under-capacity steady state; overload grows it.
		comp = make([]float64, 0, sc.Clients)
	} else {
		// Closed loop: park the other clients' standing queries in the
		// congestion signal, as RunLoad always did.
		c.mu.Lock()
		c.inflight = int64(sc.Clients) - 1
		c.mu.Unlock()
		peak = int64(sc.Clients)
	}

	ai := 0
	for e.hn > 0 {
		cl := e.popMin()
		t := e.next[cl]
		if open && t >= sc.DurationNS {
			break // heap order: every remaining arrival is at or past the horizon
		}
		for ai < len(acts) && acts[ai].at <= t {
			c.applyAction(acts[ai])
			ai++
			events++
		}
		if open {
			for len(comp) > 0 && comp[0] <= t {
				compPop(&comp)
				inflight--
				events++
			}
			c.mu.Lock()
			c.inflight = int64(inflight)
			c.mu.Unlock()
		}
		r := c.serveSerial(e.drawTerms(cl))
		events++
		served++
		hist.Add(r.LatencyNS)
		if r.Partial {
			partials++
		}
		if t+r.LatencyNS > lastNS {
			lastNS = t + r.LatencyNS
		}
		e.issued[cl]++
		if open {
			compPush(&comp, t+r.LatencyNS)
			inflight++
			if int64(inflight) > peak {
				peak = int64(inflight)
			}
			e.next[cl] = t + e.rng[cl].Exponential(float64(sc.Clients)/sc.Arrival.At(t)*1e9)
		} else {
			e.next[cl] = t + r.LatencyNS
		}
		if sc.QueriesPerClient <= 0 || int(e.issued[cl]) < sc.QueriesPerClient {
			e.push(cl)
		}
	}

	c.mu.Lock()
	queries, hits := c.Queries, c.CacheHits
	c.inflight = 0
	c.mu.Unlock()

	mean := hist.Mean()
	fs := FleetStats{
		LoadStats: LoadStats{
			Queries:        queries,
			CacheHits:      hits,
			PartialResults: partials,
			MeanLatencyNS:  mean,
			P50NS:          hist.Quantile(0.50),
			P95NS:          hist.Quantile(0.95),
			P99NS:          hist.Quantile(0.99),
		},
		Served:          served,
		EventsProcessed: events,
		DurationNS:      lastNS,
		PeakInflight:    peak,
	}
	if open {
		fs.OfferedQPS = sc.Arrival.BaseQPS
		if lastNS > 0 {
			fs.QPS = float64(served) / (lastNS * 1e-9)
		}
	} else if mean > 0 {
		fs.QPS = float64(sc.Clients) / (mean * 1e-9)
	}
	return fs
}
