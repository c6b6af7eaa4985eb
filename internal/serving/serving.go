// Package serving implements the search serving system of the paper's
// Figure 1: a front-end web server, cache servers, a root, intermediate
// parents, and leaf nodes each holding an index shard. Queries fan out down
// the tree; results propagate up with score-based merging at every level.
//
// Time is virtual: every component charges modeled latency to the query and
// parallel fan-out costs the maximum over children, which keeps simulations
// deterministic and fast while producing realistic latency distributions.
// There is one serve path: leaves run one after another on preallocated
// scratch, in a fixed order, so results never depend on scheduling. Serve
// serializes its callers, which makes the cluster safe for concurrent use.
//
// The tier is fault tolerant: each leaf call carries a virtual-time deadline
// with one hedged retry to a sibling shard, and parents merge whatever
// arrived in time, marking the result Partial instead of stalling on slow or
// failed leaves. See FaultyExecutor for deterministic fault injection and
// Cluster.Metrics for per-stage observability.
package serving

import (
	"fmt"
	"sync"

	"searchmem/internal/obs"
	"searchmem/internal/search"
	"searchmem/internal/stats"
)

// Query is one user request.
type Query struct {
	// Terms are the query's term ids.
	Terms []uint32
}

// Result is an aggregated search response.
type Result struct {
	// Docs and Scores are the merged top-k, best first.
	Docs   []uint32
	Scores []float32
	// FromCache reports whether a cache server short-circuited the tree.
	FromCache bool
	// LatencyNS is the modeled end-to-end latency.
	LatencyNS float64
	// Partial reports that at least one leaf missed its deadline or failed
	// and the merge proceeded without it (always false for cache hits).
	Partial bool
	// LeavesAnswered counts the leaves whose results made the merge
	// (0 for cache hits, which never touch the leaf tier).
	LeavesAnswered int
}

// Executor evaluates a query against one shard and reports its modeled
// service latency.
type Executor interface {
	// Search returns the shard-local top-k with scores, plus the modeled
	// execution latency in nanoseconds.
	Search(terms []uint32) (docs []uint32, scores []float32, latencyNS float64)
}

// FallibleExecutor is an Executor whose calls can also fail outright
// (crashed shard, connection refused, corrupted response). The cluster
// treats a failed call like a missed deadline: it retries via hedging when
// enabled and otherwise drops the leaf from the merge.
type FallibleExecutor interface {
	Executor
	// SearchErr is Search with an error channel: latencyNS is still
	// meaningful on failure (it is when the parent detects the fault).
	SearchErr(terms []uint32) (docs []uint32, scores []float32, latencyNS float64, err error)
}

// BufferedExecutor is an optional Executor extension for allocation-free
// serving: SearchBuf evaluates the query into the caller's buffers (whose
// lengths must be at least the executor's result size) and returns the
// result count. Results, latencies, and any internal RNG draw sequence must
// be identical to Search/SearchErr on the same call sequence. The serve
// path uses it when available; executors without it are called through
// SearchErr or Search.
type BufferedExecutor interface {
	SearchBuf(terms []uint32, docs []uint32, scores []float32) (n int, latencyNS float64, err error)
}

// OutageExecutor is an Executor that can be administratively marked down
// and up again — the hook fleet scenarios use for correlated leaf-failure
// windows (rack loss, rolling restarts). See FaultyExecutor.SetDown.
type OutageExecutor interface {
	SetDown(down bool)
}

// searchLeaf calls one leaf: buffered executors write straight into the
// caller's arrays, others go through the fallible or plain interface (their
// result slices are returned as-is; the caller's buffers are then unused).
func searchLeaf(exec Executor, terms []uint32, docs []uint32, scores []float32) ([]uint32, []float32, float64, error) {
	if be, ok := exec.(BufferedExecutor); ok {
		n, lat, err := be.SearchBuf(terms, docs, scores)
		return docs[:n], scores[:n], lat, err
	}
	if fe, ok := exec.(FallibleExecutor); ok {
		return fe.SearchErr(terms)
	}
	d, sc, lat := exec.Search(terms)
	return d, sc, lat, nil
}

// SyntheticExecutor is a deterministic stand-in for a real leaf engine:
// results derive from a hash of (term, shard), latency from a base cost
// plus per-term cost with deterministic jitter.
type SyntheticExecutor struct {
	// ShardID decorrelates results between leaves.
	ShardID uint32
	// TopK is the number of results returned.
	TopK int
	// BaseLatencyNS and PerTermNS build the service-time model.
	BaseLatencyNS, PerTermNS float64

	mu  sync.Mutex
	rng *stats.RNG
	tk  *search.TopK // reused by SearchBuf, guarded by mu
}

// NewSyntheticExecutor returns an executor for the given shard.
func NewSyntheticExecutor(shardID uint32, topK int) *SyntheticExecutor {
	return &SyntheticExecutor{
		ShardID:       shardID,
		TopK:          topK,
		BaseLatencyNS: 2e6, // 2 ms base service time
		PerTermNS:     8e5,
		rng:           stats.NewRNG(uint64(shardID)*0x9e37 + 5),
	}
}

// fill pushes the deterministic pseudo-results for terms: k docs scored by
// a hash chain over (shard, terms).
func (e *SyntheticExecutor) fill(tk *search.TopK, terms []uint32) {
	h := uint64(e.ShardID)*2654435761 + 1
	for _, t := range terms {
		h = h*6364136223846793005 + uint64(t)
	}
	x := h
	for i := 0; i < e.TopK*4; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		doc := uint32(x) % 1_000_000
		score := float32(x%10_000) / 100
		tk.Push(doc, score)
	}
}

// Search implements Executor.
func (e *SyntheticExecutor) Search(terms []uint32) ([]uint32, []float32, float64) {
	tk := search.NewTopK(e.TopK)
	e.fill(tk, terms)
	docs, scores := tk.Results()

	e.mu.Lock()
	jitter := e.rng.Exponential(0.15 * e.BaseLatencyNS)
	e.mu.Unlock()
	lat := e.BaseLatencyNS + float64(len(terms))*e.PerTermNS + jitter
	return docs, scores, lat
}

// SearchBuf implements BufferedExecutor: identical results and jitter draw
// sequence to Search, written into the caller's buffers via an internal
// reusable selector, with no allocation after the first call.
func (e *SyntheticExecutor) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	e.mu.Lock()
	if e.tk == nil {
		e.tk = search.NewTopK(e.TopK)
	} else {
		e.tk.Reset()
	}
	e.fill(e.tk, terms)
	n := e.tk.ResultsInto(docs, scores)
	jitter := e.rng.Exponential(0.15 * e.BaseLatencyNS)
	e.mu.Unlock()
	lat := e.BaseLatencyNS + float64(len(terms))*e.PerTermNS + jitter
	return n, lat, nil
}

// EngineExecutor adapts a real search.Session to the Executor interface.
// The session is guarded by a mutex (sessions are single-threaded).
type EngineExecutor struct {
	mu sync.Mutex
	// Session is the engine session evaluating queries.
	Session *search.Session
	// NSPerInstr converts the session's instruction cost to latency
	// (1/(IPC*freqGHz)).
	NSPerInstr float64
}

// Search implements Executor. Tree mode bypasses the engine's query cache:
// cache hits store ids only, and fabricated rank-order scores must never
// merge against real BM25 scores from sibling shards — the serving tier has
// its own result cache at the cache-server level.
func (e *EngineExecutor) Search(terms []uint32) ([]uint32, []float32, float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Session.SkipCache = true
	before := e.Session.Instructions()
	r := e.Session.Execute(terms)
	lat := float64(e.Session.Instructions()-before) * e.NSPerInstr
	return r.Docs, r.Scores, lat
}

// Config shapes the serving tree.
type Config struct {
	// Leaves is the number of leaf nodes (index shards).
	Leaves int
	// Fanout is the number of leaves per intermediate parent.
	Fanout int
	// TopK is the merged result size at every level.
	TopK int
	// CacheSlots sizes the cache-server tier (0 disables it).
	CacheSlots int
	// NetworkHopNS is the one-way cost of each tree hop.
	NetworkHopNS float64
	// RootOverheadNS is the root's preprocessing cost (spell check etc.).
	RootOverheadNS float64
	// FrontendOverheadNS is the web server's cost.
	FrontendOverheadNS float64
	// LeafCapacity is how many concurrent queries the leaf tier absorbs
	// before queueing inflates service times (0 disables the queueing
	// model). Latency is scaled by 1/(1-rho) with rho the instantaneous
	// utilization, the standard M/M/1-style congestion signal.
	LeafCapacity int
	// LeafDeadlineNS is the parent's per-leaf virtual-time deadline:
	// leaves that cannot answer (even via a hedged retry) by the deadline
	// are dropped from the merge and the result is marked Partial. 0
	// disables deadlines; the parent then waits for every leaf.
	LeafDeadlineNS float64
	// HedgeDelayNS is the virtual time after which a parent issues one
	// hedged retry of a still-pending leaf call to the next sibling shard
	// in the same parent; a leaf failure detected earlier triggers the
	// retry immediately. 0 disables hedging.
	HedgeDelayNS float64
	// Name labels the cluster's metric series ("cluster" when empty), so
	// several clusters can share one registry without colliding.
	Name string
	// Registry receives the cluster's metrics; nil gets a private registry
	// (Cluster.Metrics works either way).
	Registry *obs.Registry
	// Tracer, when non-nil, records one distributed trace per served query.
	// The span tree is reconstructed from the resolved fan-out outcomes
	// after the merge; trace IDs follow serve order (deterministic for
	// single-driver runs).
	Tracer *obs.Tracer
}

// DefaultConfig returns a small but fully structured tree. Deadlines and
// hedging are off by default so the latency model matches the unhardened
// tier exactly.
func DefaultConfig() Config {
	return Config{
		Leaves:             12,
		Fanout:             4,
		TopK:               10,
		CacheSlots:         4096,
		NetworkHopNS:       2e5,
		RootOverheadNS:     3e5,
		FrontendOverheadNS: 1e5,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Leaves <= 0 || c.Fanout <= 0 || c.TopK <= 0 {
		return fmt.Errorf("serving: counts must be positive")
	}
	if c.CacheSlots < 0 {
		return fmt.Errorf("serving: negative cache slots")
	}
	if c.NetworkHopNS < 0 || c.RootOverheadNS < 0 || c.FrontendOverheadNS < 0 {
		return fmt.Errorf("serving: negative latencies")
	}
	if c.LeafDeadlineNS < 0 || c.HedgeDelayNS < 0 {
		return fmt.Errorf("serving: negative deadline or hedge delay")
	}
	return nil
}

// leaf is one leaf node.
type leaf struct {
	id   int
	exec Executor
}

// parent aggregates a group of leaves.
type parent struct {
	leaves []*leaf
}

// Cluster is the wired serving tree.
type Cluster struct {
	cfg     Config
	parents []*parent
	leaves  []*leaf // flat view in shard order, for outage injection
	cache   *cacheServer
	metrics *clusterMetrics
	reg     *obs.Registry

	// driveMu serializes Serve and the load loops (RunLoad, RunScenario),
	// which share the preallocated scratch below.
	driveMu sync.Mutex
	scratch *serveScratch

	mu sync.Mutex
	// Queries and CacheHits count served requests.
	Queries, CacheHits int64
	inflight           int64
}

// NewCluster wires a tree with the given executors (one per leaf; missing
// entries get synthetic executors).
func NewCluster(cfg Config, executors []Executor) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	name := cfg.Name
	if name == "" {
		name = "cluster"
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cluster{cfg: cfg, metrics: newClusterMetrics(reg, name), reg: reg}
	if cfg.CacheSlots > 0 {
		c.cache = newCacheServer(cfg.CacheSlots)
	}
	var cur *parent
	for i := 0; i < cfg.Leaves; i++ {
		if cur == nil || len(cur.leaves) == cfg.Fanout {
			cur = &parent{}
			c.parents = append(c.parents, cur)
		}
		var exec Executor
		if i < len(executors) && executors[i] != nil {
			exec = executors[i]
		} else {
			exec = NewSyntheticExecutor(uint32(i), cfg.TopK)
		}
		lf := &leaf{id: i, exec: exec}
		cur.leaves = append(cur.leaves, lf)
		c.leaves = append(c.leaves, lf)
	}
	return c
}

// SetLeafDown marks leaf's executor administratively down (or back up) when
// it supports outage injection, reporting whether it did. Fleet scenario
// timelines use this for correlated leaf-failure windows.
func (c *Cluster) SetLeafDown(leafID int, down bool) bool {
	if leafID < 0 || leafID >= len(c.leaves) {
		return false
	}
	o, ok := c.leaves[leafID].exec.(OutageExecutor)
	if ok {
		o.SetDown(down)
	}
	return ok
}

// FlushCache empties the cache tier in place — a shard-reload / cold-restart
// event. No-op when the cache tier is disabled.
func (c *Cluster) FlushCache() {
	if c.cache != nil {
		c.cache.flush()
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Registry returns the metrics registry the cluster reports into (the one
// from Config.Registry, or the private one created in its absence).
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// leafOutcome is one leaf call's contribution as seen by its parent.
type leafOutcome struct {
	docs   []uint32
	scores []float32
	// srcLeaf is the shard that produced the answer (the hedge sibling
	// when the hedge won).
	srcLeaf int
	// arrivalNS is when the answer reached the parent (virtual time from
	// fan-out start, congestion applied).
	arrivalNS float64
	// waitNS is how long the parent waited on this leaf before answering,
	// giving up, or hitting the deadline.
	waitNS float64
	// answered reports whether the leaf's docs made the merge.
	answered bool
	// hedged/hedgeWon/failed/timedOut feed the metrics registry. failed
	// marks a failed primary attempt even when the hedge recovered it;
	// timedOut marks a leaf dropped at the deadline.
	hedged, hedgeWon bool
	failed, timedOut bool
	// attemptLatNS[:attempts] are the raw service latencies of the primary
	// and (when issued) hedge attempts — a fixed array rather than a slice
	// so outcome records carry no per-query allocations.
	attemptLatNS [2]float64
	attempts     int
	// Trace-reconstruction timeline (virtual time from fan-out start):
	// the primary shard and its arrival, and — when hedged — the retry's
	// issue and arrival times plus the sibling shard it went to.
	primaryLeaf                   int
	primaryArrivalNS              float64
	hedgeIssuedNS, hedgeArrivalNS float64
	hedgeLeaf                     int
}

// attempt is one executor call's raw outcome.
type attempt struct {
	docs   []uint32
	scores []float32
	lat    float64
	err    error
}

// resolveOutcomes turns raw primary/hedge attempts into per-leaf outcomes
// in virtual time: which attempt answered, when the parent stopped waiting,
// and the timeline the trace reports. outs is caller-owned scratch, fully
// overwritten.
func resolveOutcomes(p *parent, prim, hedges []attempt, hedgeAt []float64, congestion, deadline float64, outs []leafOutcome) {
	n := len(p.leaves)
	for li := range p.leaves {
		out := &outs[li]
		*out = leafOutcome{}
		out.srcLeaf = p.leaves[li].id
		out.attemptLatNS[0] = prim[li].lat
		out.attempts = 1
		docs, scores := prim[li].docs, prim[li].scores
		arrival := prim[li].lat * congestion
		ok := prim[li].err == nil
		out.failed = !ok
		out.primaryArrivalNS = arrival
		out.hedgeIssuedNS = -1

		out.primaryLeaf = p.leaves[li].id

		if hedgeAt[li] >= 0 {
			h := hedges[li]
			out.attemptLatNS[1] = h.lat
			out.attempts = 2
			out.hedged = true
			hArrival := hedgeAt[li] + h.lat*congestion
			out.hedgeIssuedNS = hedgeAt[li]
			out.hedgeArrivalNS = hArrival
			out.hedgeLeaf = p.leaves[(li+1)%n].id
			if h.err == nil && (!ok || hArrival < arrival) {
				docs, scores, arrival, ok = h.docs, h.scores, hArrival, true
				out.srcLeaf = p.leaves[(li+1)%n].id
				out.hedgeWon = true
			} else if !ok && hArrival > arrival {
				// Both attempts failed; the parent learns at the later one.
				arrival = hArrival
			}
		}

		switch {
		case !ok:
			out.waitNS = arrival
			if deadline > 0 && out.waitNS > deadline {
				out.waitNS = deadline
			}
		case deadline > 0 && arrival > deadline:
			out.timedOut = true
			out.waitNS = deadline
		default:
			out.answered = true
			out.docs, out.scores = docs, scores
			out.arrivalNS, out.waitNS = arrival, arrival
		}
	}
}

// emitCacheHitTrace records the two-span trace of a cache-served query.
func (c *Cluster) emitCacheHitTrace(tb *obs.TraceBuilder, latencyNS float64) {
	fe := c.cfg.FrontendOverheadNS
	root := tb.Span(0, "query", 0, latencyNS,
		obs.Bool("from_cache", true), obs.Bool("partial", false))
	tb.Span(root, "frontend", 0, fe)
	tb.Span(root, "cache-probe", fe, fe+c.cfg.NetworkHopNS, obs.Bool("hit", true))
	tb.Finish()
}

// emitServeTrace reconstructs a full tree traversal's span tree from the
// per-leaf outcomes and per-parent summaries the serve path left in the
// scratch. The virtual timeline mirrors the latency model exactly:
// frontend, optional cache probe, root preprocessing, one hop down to each
// parent, one hop down to each leaf, congested leaf service, and the return
// hops; the root merge itself is free in the model, so its span is an
// instant marking where the result assembled.
func (c *Cluster) emitServeTrace(tb *obs.TraceBuilder, probed bool, congestion float64, res Result) {
	s := c.scratch
	hop := c.cfg.NetworkHopNS
	fe := c.cfg.FrontendOverheadNS
	root := tb.Span(0, "query", 0, res.LatencyNS,
		obs.Bool("from_cache", false),
		obs.Bool("partial", res.Partial),
		obs.Int("leaves_answered", int64(res.LeavesAnswered)),
		obs.Float("congestion", congestion))
	tb.Span(root, "frontend", 0, fe)
	rootStart := fe
	if probed {
		tb.Span(root, "cache-probe", fe, fe+hop, obs.Bool("hit", false))
		rootStart += hop
	}
	fanStart := rootStart + c.cfg.RootOverheadNS
	tb.Span(root, "root", rootStart, fanStart)
	fan := tb.Span(root, "fanout", fanStart, res.LatencyNS,
		obs.Int("parents", int64(len(c.parents))))
	for pi, p := range c.parents {
		b := &s.branches[pi]
		pStart := fanStart + hop
		ps := tb.Span(fan, fmt.Sprintf("parent[%d]", pi), pStart, pStart+b.latNS,
			obs.Int("leaves", int64(len(p.leaves))),
			obs.Int("answered", int64(b.answered)),
			obs.Bool("partial", b.partial))
		leafStart := pStart + hop
		for _, lf := range p.leaves {
			o := &s.outs[lf.id]
			tb.Span(ps, fmt.Sprintf("leaf[%d]/primary", o.primaryLeaf),
				leafStart, leafStart+o.primaryArrivalNS,
				obs.Int("shard", int64(o.primaryLeaf)),
				obs.Bool("failed", o.failed),
				obs.Bool("timed_out", o.timedOut),
				obs.Bool("answered", o.answered && !o.hedgeWon))
			if o.hedged {
				tb.Span(ps, fmt.Sprintf("leaf[%d]/hedge", o.primaryLeaf),
					leafStart+o.hedgeIssuedNS, leafStart+o.hedgeArrivalNS,
					obs.Int("shard", int64(o.hedgeLeaf)),
					obs.Bool("won", o.hedgeWon))
			}
		}
	}
	tb.Span(fan, "merge", res.LatencyNS, res.LatencyNS,
		obs.Int("results", int64(len(res.Docs))),
		obs.Bool("partial", res.Partial))
	tb.Finish()
}

// CacheHitRate returns the fraction of queries served by the cache tier.
func (c *Cluster) CacheHitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Queries == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(c.Queries)
}

// cacheTag hashes query terms (FNV-1a).
func cacheTag(terms []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range terms {
		h ^= uint64(t)
		h *= 1099511628211
	}
	return h
}

// cacheServer is the cache tier: a sharded LRU map keyed by query tag.
// Entries are defensively copied on both put and getInto: callers own the
// slices in a Result and may mutate them, and a cached entry must survive
// that (see TestCacheEntriesImmuneToCallerMutation).
//
// Eviction order lives in a fixed-capacity ring buffer (head/count over a
// slots-sized array). The previous slice queue — `order = order[1:]` plus
// append — slid a window through its backing array and re-allocated it
// every few evictions, so a long churny run paid an allocation and a copy
// of the whole queue per handful of inserts. The ring never re-allocates,
// and evicted entries are recycled into the next insert, so a full cache
// under churn runs at a zero-allocation steady state.
type cacheServer struct {
	mu    sync.Mutex
	slots int
	data  map[uint64]*cacheEntry
	order []uint64 // FIFO eviction ring (clock-less approximation of LRU)
	head  int      // ring index of the oldest entry
	count int      // live entries (== len(data))
}

type cacheEntry struct {
	docs   []uint32
	scores []float32
}

func newCacheServer(slots int) *cacheServer {
	return &cacheServer{
		slots: slots,
		data:  make(map[uint64]*cacheEntry, slots),
		order: make([]uint64, slots),
	}
}

// getInto copies the entry for tag into the caller's buffers (reusing their
// capacity) and reports whether it was present.
func (s *cacheServer) getInto(tag uint64, docs *[]uint32, scores *[]float32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[tag]
	if !ok {
		return false
	}
	*docs = append((*docs)[:0], e.docs...)
	*scores = append((*scores)[:0], e.scores...)
	return true
}

func (s *cacheServer) put(tag uint64, docs []uint32, scores []float32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, exists := s.data[tag]; exists {
		// Same defensive-copy contract, reusing the entry's storage; the
		// FIFO position is unchanged, as before.
		e.docs = append(e.docs[:0], docs...)
		e.scores = append(e.scores[:0], scores...)
		return
	}
	var e *cacheEntry
	for s.count >= s.slots && s.count > 0 {
		victim := s.order[s.head]
		s.head++
		if s.head == s.slots {
			s.head = 0
		}
		s.count--
		e = s.data[victim] // recycle the victim's storage for the insert
		delete(s.data, victim)
	}
	if e == nil {
		e = &cacheEntry{}
	}
	e.docs = append(e.docs[:0], docs...)
	e.scores = append(e.scores[:0], scores...)
	s.data[tag] = e
	tail := s.head + s.count
	if tail >= s.slots {
		tail -= s.slots
	}
	s.order[tail] = tag
	s.count++
}

// flush empties the cache in place, keeping the map's storage — the
// shard-reload / cold-restart event of fleet scenarios.
func (s *cacheServer) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.data)
	s.head, s.count = 0, 0
}

// LoadStats summarizes a load-generation run.
type LoadStats struct {
	// Queries served and the cache-hit share.
	Queries   int64
	CacheHits int64
	// PartialResults counts queries answered with a degraded merge.
	PartialResults int64
	// MeanLatencyNS, P50, P95 and P99 describe the virtual latency
	// distribution.
	MeanLatencyNS, P50NS, P95NS, P99NS float64
	// QPS is modeled throughput: clients / mean latency for closed loops,
	// served queries / virtual duration for open-loop scenarios.
	QPS float64
}
