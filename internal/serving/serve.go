package serving

import (
	"slices"

	"searchmem/internal/search"
)

// serveScratch holds every buffer the serve path needs, preallocated once
// per cluster and reused query to query under Cluster.driveMu. Attempt and
// result buffers cover the widest parent and are reused parent to parent;
// outcome slots cover every leaf (in shard order) and branch summaries
// every parent, so a traced query can rebuild its span tree after the
// merge.
type serveScratch struct {
	prim, hedges []attempt // per-fan-out-slot attempt slots
	hedgeAt      []float64
	outs         []leafOutcome   // per leaf, in shard order
	branches     []branchSummary // per parent
	primDocs     [][]uint32      // per-slot primary result buffers (TopK each)
	primScores   [][]float32
	hedgeDocs    [][]uint32 // per-slot hedge result buffers
	hedgeScores  [][]float32
	bdocs        []uint32 // branch-merge drain (one parent at a time)
	bscores      []float32
	docs         []uint32 // root-merge drain
	scores       []float32
	cdocs        []uint32 // cache-hit copy buffers
	cscores      []float32
	tk, rootTK   *search.TopK
	seen         map[uint32]struct{} // hedge-win dedup, cleared per use
	events       mergeEvents
}

// branchSummary is one parent's merge as the trace reports it.
type branchSummary struct {
	latNS    float64 // parent wait plus the two hops to and from it
	answered int
	partial  bool
}

func newServeScratch(cfg Config) *serveScratch {
	f := cfg.Fanout
	if cfg.Leaves < f {
		f = cfg.Leaves
	}
	k := cfg.TopK
	s := &serveScratch{
		prim:        make([]attempt, f),
		hedges:      make([]attempt, f),
		hedgeAt:     make([]float64, f),
		outs:        make([]leafOutcome, cfg.Leaves),
		branches:    make([]branchSummary, (cfg.Leaves+cfg.Fanout-1)/cfg.Fanout),
		primDocs:    make([][]uint32, f),
		primScores:  make([][]float32, f),
		hedgeDocs:   make([][]uint32, f),
		hedgeScores: make([][]float32, f),
		bdocs:       make([]uint32, k),
		bscores:     make([]float32, k),
		docs:        make([]uint32, k),
		scores:      make([]float32, k),
		cdocs:       make([]uint32, 0, k),
		cscores:     make([]float32, 0, k),
		tk:          search.NewTopK(k),
		rootTK:      search.NewTopK(k),
		seen:        make(map[uint32]struct{}, f*k),
		events:      mergeEvents{attemptLatenciesNS: make([]float64, 0, 2*cfg.Leaves)},
	}
	docBack := make([]uint32, 2*f*k)
	scoreBack := make([]float32, 2*f*k)
	for i := 0; i < f; i++ {
		s.primDocs[i] = docBack[i*k : (i+1)*k]
		s.primScores[i] = scoreBack[i*k : (i+1)*k]
		s.hedgeDocs[i] = docBack[(f+i)*k : (f+i+1)*k]
		s.hedgeScores[i] = scoreBack[(f+i)*k : (f+i+1)*k]
	}
	return s
}

// ensureScratch lazily builds the scratch; callers must hold driveMu.
func (c *Cluster) ensureScratch() {
	if c.scratch == nil {
		c.scratch = newServeScratch(c.cfg)
	}
}

// Serve runs one query through the full tree and returns the merged result
// with its modeled latency. Calls are serialized on the cluster, so Serve
// is safe for concurrent use; the returned slices are the caller's own.
func (c *Cluster) Serve(q Query) Result {
	c.driveMu.Lock()
	defer c.driveMu.Unlock()
	c.ensureScratch()
	r := c.serveSerial(q.Terms)
	r.Docs, r.Scores = slices.Clone(r.Docs), slices.Clone(r.Scores)
	return r
}

// fanOut runs the parent's leaf calls with deadline and hedging semantics
// in virtual time, writing outcomes into outs (one slot per leaf of p).
// Primaries are called in leaf order, then hedged retries (to the next
// sibling shard, a stand-in for a replica) in leaf order; each executor is
// called at most once per phase, so executors with internal RNG state draw
// a fixed sequence.
func (c *Cluster) fanOut(p *parent, terms []uint32, congestion float64, s *serveScratch, outs []leafOutcome) {
	deadline, hedgeDelay := c.cfg.LeafDeadlineNS, c.cfg.HedgeDelayNS
	n := len(p.leaves)

	prim := s.prim[:n]
	for li := range p.leaves {
		a := &prim[li]
		a.docs, a.scores, a.lat, a.err = searchLeaf(p.leaves[li].exec, terms, s.primDocs[li], s.primScores[li])
	}

	// One hedged retry per leaf: issued at the hedge delay while the
	// primary is still pending, or immediately when the primary fails
	// first. Skipped when it could not possibly beat the deadline.
	hedgeAt := s.hedgeAt[:n]
	hedges := s.hedges[:n]
	for li := range p.leaves {
		hedgeAt[li] = -1
		if hedgeDelay <= 0 || n < 2 {
			continue
		}
		arrival := prim[li].lat * congestion
		issueAt := -1.0
		if prim[li].err != nil {
			issueAt = arrival
		} else if arrival > hedgeDelay {
			issueAt = hedgeDelay
		}
		if issueAt >= 0 && (deadline == 0 || issueAt < deadline) {
			hedgeAt[li] = issueAt
			a := &hedges[li]
			a.docs, a.scores, a.lat, a.err = searchLeaf(p.leaves[(li+1)%n].exec, terms, s.hedgeDocs[li], s.hedgeScores[li])
		}
	}

	resolveOutcomes(p, prim, hedges, hedgeAt, congestion, deadline, outs)
}

// serveSerial is the serve path behind Serve, RunLoad and RunScenario: the
// latency model, merges, cache tier, metrics and tracing, with zero
// allocations per untraced query (enforced by the ZeroAlloc oracle in
// alloc_test.go). Callers must hold driveMu and have called ensureScratch;
// the returned Result's slices alias the scratch and are valid only until
// the next serveSerial call.
func (c *Cluster) serveSerial(terms []uint32) Result {
	s := c.scratch

	c.mu.Lock()
	c.Queries++
	c.inflight++
	congestion := 1.0
	if c.cfg.LeafCapacity > 0 {
		rho := float64(c.inflight) / float64(c.cfg.LeafCapacity)
		if rho > 0.95 {
			rho = 0.95
		}
		congestion = 1 / (1 - rho)
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.inflight--
		c.mu.Unlock()
	}()

	tb := c.cfg.Tracer.Begin("query")

	lat := c.cfg.FrontendOverheadNS
	tag := cacheTag(terms)
	probed := false
	if c.cache != nil {
		probed = true
		if c.cache.getInto(tag, &s.cdocs, &s.cscores) {
			c.mu.Lock()
			c.CacheHits++
			c.mu.Unlock()
			c.metrics.recordCacheHit(c.cfg.FrontendOverheadNS, c.cfg.NetworkHopNS)
			// The Result aliasing the scratch buffers is serveSerial's
			// documented contract (valid until the next call on this
			// cluster); copying here would put an allocation on the
			// zero-alloc event path.
			lat += c.cfg.NetworkHopNS
			if tb != nil {
				c.emitCacheHitTrace(tb, lat)
			}
			//lint:ignore aliasret serveSerial results alias per-cluster scratch by contract; callers must consume before the next call
			return Result{Docs: s.cdocs, Scores: s.cscores, FromCache: true, LatencyNS: lat}
		}
		lat += c.cfg.NetworkHopNS // cache miss probe
	}
	lat += c.cfg.RootOverheadNS

	// Parents run one after another (virtual time makes concurrency a
	// modeling question, not an execution one): a parallel hop costs its
	// slowest child, each branch merges in leaf order into the branch
	// selector, then feeds the root selector in parent order.
	s.events.reset()
	s.rootTK.Reset()
	var worst float64
	partial := false
	answered := 0
	for pi, p := range c.parents {
		first := p.leaves[0].id // a parent's leaves are consecutive shards
		outs := s.outs[first : first+len(p.leaves)]
		c.fanOut(p, terms, congestion, s, outs)

		// A winning hedge returns the sibling shard's docs, which duplicate
		// the sibling's own answer — dedupe only then.
		var seen map[uint32]struct{}
		for i := range outs {
			if outs[i].hedgeWon {
				clear(s.seen)
				seen = s.seen
				break
			}
		}
		s.tk.Reset()
		var wait float64
		b := branchSummary{}
		for i := range outs {
			o := &outs[i]
			if o.waitNS > wait {
				wait = o.waitNS
			}
			s.events.observe(o)
			if !o.answered {
				b.partial = true
				continue
			}
			b.answered++
			for j := range o.docs {
				// Disambiguate doc ids across shards.
				id := o.docs[j]*uint32(c.cfg.Leaves) + uint32(o.srcLeaf)
				if seen != nil {
					if _, dup := seen[id]; dup {
						continue
					}
					seen[id] = struct{}{}
				}
				s.tk.Push(id, o.scores[j])
			}
		}
		bn := s.tk.ResultsInto(s.bdocs, s.bscores)
		b.latNS = wait + 2*c.cfg.NetworkHopNS
		s.branches[pi] = b
		if b.latNS > worst {
			worst = b.latNS
		}
		partial = partial || b.partial
		answered += b.answered
		for j := 0; j < bn; j++ {
			s.rootTK.Push(s.bdocs[j], s.bscores[j])
		}
	}

	n := s.rootTK.ResultsInto(s.docs, s.scores)
	lat += worst + 2*c.cfg.NetworkHopNS
	docs, scores := s.docs[:n], s.scores[:n]

	// Degraded merges are never cached: a later identical query should get
	// another chance at a full answer, not a pinned partial one.
	if c.cache != nil && !partial {
		c.cache.put(tag, docs, scores)
	}
	c.metrics.recordServe(c.cfg.FrontendOverheadNS, probed, c.cfg.NetworkHopNS,
		worst+2*c.cfg.NetworkHopNS, s.events, partial)
	res := Result{Docs: docs, Scores: scores, LatencyNS: lat, Partial: partial, LeavesAnswered: answered}
	if tb != nil {
		c.emitServeTrace(tb, probed, congestion, res)
	}
	return res
}
