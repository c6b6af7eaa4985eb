package main

import (
	"fmt"

	"searchmem/internal/serving"
)

// fleet runs open-loop fleet scenarios near the SLO knee of three
// iso-area leaf scalings, plus one closed loop: the event heap, the serve
// path and the leaf executors do all the work, the cache kernel and the
// index build none.
type fleet struct {
	seed    uint64
	clients int
	durNS   float64
	// capacity is each design's probed capacity in QPS.
	capacity []float64
}

// fleetDesign is one leaf scaling: cores set the leaf concurrency budget,
// scale the service time (the inverse of the design's relative IPC).
type fleetDesign struct {
	name  string
	cores int
	scale float64
}

// fleetDesigns are the base 18-core design, the rebalanced 23-core design
// with less L3 per core, and the rebalanced design with an L4.
var fleetDesigns = []fleetDesign{
	{"base", 18, 1.0},
	{"rebal", 23, 1.06},
	{"rebal+l4", 23, 0.97},
}

// fleetScenarios are the open-loop timelines, each offering the same mean
// load: constant arrivals, a 3x flash crowd in [0.4, 0.5) of the horizon,
// and a quarter of the leaves dark in [0.4, 0.6).
var fleetScenarios = []string{"steady", "flash", "outage"}

const (
	fleetLeaves     = 16
	fleetCapPerCore = 4
	// fleetLoad is the offered load as a share of the probed capacity:
	// near the knee, where queueing shapes the tail.
	fleetLoad = 0.9
)

func newFleet(cfg *config) pass {
	f := &fleet{seed: cfg.seed, clients: 12_500, durNS: 4e9}
	if cfg.tiny {
		f.clients, f.durNS = 1000, 5e7
	}
	return f
}

// timedLeaf times a leaf executor's calls for a traced run, sampling one
// call in sampleEvery. It forwards every optional executor interface, so
// the cluster drives it exactly as the executor it wraps.
type timedLeaf struct {
	inner *serving.FaultyExecutor
	m     *meter
}

// Search implements serving.Executor.
func (t *timedLeaf) Search(terms []uint32) ([]uint32, []float32, float64) {
	if !t.m.sample() {
		return t.inner.Search(terms)
	}
	t0 := now()
	defer t.m.timeSince(t0)
	return t.inner.Search(terms)
}

// SearchErr implements serving.FallibleExecutor.
func (t *timedLeaf) SearchErr(terms []uint32) ([]uint32, []float32, float64, error) {
	if !t.m.sample() {
		return t.inner.SearchErr(terms)
	}
	t0 := now()
	defer t.m.timeSince(t0)
	return t.inner.SearchErr(terms)
}

// SearchBuf implements serving.BufferedExecutor.
func (t *timedLeaf) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	if !t.m.sample() {
		return t.inner.SearchBuf(terms, docs, scores)
	}
	t0 := now()
	defer t.m.timeSince(t0)
	return t.inner.SearchBuf(terms, docs, scores)
}

// SetDown implements serving.OutageExecutor.
func (t *timedLeaf) SetDown(down bool) { t.inner.SetDown(down) }

// cluster builds a serving tree for design d: synthetic leaves wrapped in
// fault-free FaultyExecutors (so outages can mark them down), each wrapped
// again in a timedLeaf when traced. The leaf deadline sits above the tail
// so the congestion knee stays visible.
func (f *fleet) cluster(tr *tracer, d fleetDesign) *serving.Cluster {
	cfg := serving.DefaultConfig()
	cfg.Leaves = fleetLeaves
	cfg.LeafCapacity = fleetCapPerCore * d.cores
	cfg.LeafDeadlineNS = 40e6
	cfg.HedgeDelayNS = 5e6
	cfg.Name = d.name
	execs := make([]serving.Executor, fleetLeaves)
	for i := range execs {
		e := serving.NewSyntheticExecutor(uint32(i), cfg.TopK)
		e.BaseLatencyNS *= d.scale
		e.PerTermNS *= d.scale
		fe := &serving.FaultyExecutor{Inner: e, Seed: f.seed + uint64(i)*7919}
		execs[i] = fe
		if tr != nil {
			execs[i] = &timedLeaf{inner: fe, m: &tr.m[lLeaf]}
		}
	}
	return serving.NewCluster(cfg, execs)
}

// setup probes each design's uncongested capacity with a short closed
// loop: LeafCapacity/4 queries per mean service time, where the 1/(1-rho)
// congestion law peaks.
func (f *fleet) setup(tr *tracer) error {
	f.capacity = make([]float64, len(fleetDesigns))
	for i, d := range fleetDesigns {
		st := serving.RunLoad(f.cluster(nil, d), 4, 200, 3000, 0.9, f.seed+61)
		if st.MeanLatencyNS <= 0 {
			return fmt.Errorf("design %s: probe mean latency %v", d.name, st.MeanLatencyNS)
		}
		f.capacity[i] = float64(fleetCapPerCore*d.cores) / 4 / (st.MeanLatencyNS * 1e-9)
	}
	return nil
}

// scenario returns the open-loop scenario name on design i.
func (f *fleet) scenario(name string, i int) serving.Scenario {
	rc := &serving.RateCurve{BaseQPS: f.capacity[i] * fleetLoad}
	var evs []serving.FleetEvent
	switch name {
	case "flash":
		rc.Bursts = []serving.Burst{{StartNS: 0.4 * f.durNS, EndNS: 0.5 * f.durNS, Factor: 3}}
	case "outage":
		evs = []serving.FleetEvent{{AtNS: 0.4 * f.durNS, OutageLeaves: fleetLeaves / 4, OutageDurationNS: 0.2 * f.durNS}}
	}
	return serving.Scenario{
		Clients: f.clients, VocabSize: 3000, Skew: 0.9, Seed: f.seed + 67,
		Arrival: rc, DurationNS: f.durNS, Events: evs,
	}
}

// runScenario runs one scenario on a fresh cluster of design i.
func (f *fleet) runScenario(tr *tracer, name string, i int) serving.FleetStats {
	cl := f.cluster(tr, fleetDesigns[i])
	var fs serving.FleetStats
	tr.timed(lServing, "serving.RunScenario "+name+"/"+fleetDesigns[i].name, func() { fs = serving.RunScenario(cl, f.scenario(name, i)) })
	return fs
}

func (f *fleet) ops(tr *tracer) []task {
	var tasks []task
	for _, name := range fleetScenarios {
		for i, d := range fleetDesigns {
			tasks = append(tasks, task{name + "/" + d.name, func(o *op) error {
				fs := f.runScenario(tr, name, i)
				var dg digester
				dg.Printf("%+v", fs)
				o.digest, o.queries = dg.Sum(), fs.Served
				if tr != nil {
					c := &tr.c
					c.events += fs.EventsProcessed
					c.queries += fs.Served
					c.cacheHits += fs.CacheHits
					c.partials += fs.PartialResults
					c.p99ms = append(c.p99ms, fs.P99NS/1e6)
					c.peakInflight = max(c.peakInflight, fs.PeakInflight)
				}
				return nil
			}})
		}
	}
	return append(tasks, task{"closed/base", func(o *op) error {
		cl := f.cluster(tr, fleetDesigns[0])
		var ls serving.LoadStats
		tr.timed(lServing, "serving.RunLoad closed/base", func() { ls = serving.RunLoad(cl, 64, f.clients/64, 3000, 0.9, f.seed+71) })
		var dg digester
		dg.Printf("%+v", ls)
		o.digest, o.queries = dg.Sum(), ls.Queries
		if tr != nil {
			tr.c.queries += ls.Queries
			tr.c.cacheHits += ls.CacheHits
			tr.c.partials += ls.PartialResults
			tr.c.p99ms = append(tr.c.p99ms, ls.P99NS/1e6)
		}
		return nil
	}})
}

// crossCheck runs one scenario with and without the leaf timing wrapper:
// the fleet statistics must be identical.
func (f *fleet) crossCheck() []task {
	return []task{{"wrapper-xcheck", func(o *op) error {
		if err := f.setup(nil); err != nil {
			return err
		}
		plain := f.runScenario(nil, "outage", 0)
		wrapped := f.runScenario(newTracer(), "outage", 0)
		if plain != wrapped {
			return fmt.Errorf("%w: fleet stats with the leaf timing wrapper %+v, without %+v", errMismatch, wrapped, plain)
		}
		o.digest = "ok"
		return nil
	}}}
}
