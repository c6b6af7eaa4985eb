package main

import (
	"searchmem/internal/det"
	"searchmem/internal/experiments"
	"searchmem/internal/workload"
)

// suite runs every registered experiment at experiments.Fast() scale on a
// fresh Context, as `searchsim -fast all` does: the only workload where the
// runner memo, the sweep fan-out and the sharded multi-hierarchy kernel run.
type suite struct {
	opts experiments.Options
	exps []experiments.Experiment
	ctx  *experiments.Context
	// stores is the recording footprint countStores last saw.
	stores workload.StoreStats
}

// tinySuite is the experiment subset a tiny suite runs.
var tinySuite = map[string]bool{"table1": true, "fig6b": true, "figF1": true}

func newSuite(cfg *config) pass {
	s := &suite{opts: experiments.Fast()}
	s.opts.Seed = cfg.seed
	for _, e := range experiments.All() {
		if !cfg.tiny || tinySuite[e.ID] {
			s.exps = append(s.exps, e)
		}
	}
	if cfg.tiny {
		s.opts.Shrink, s.opts.Budget, s.opts.Threads = 64, 40_000, 2
	}
	return s
}

// setup creates the Context.
func (s *suite) setup(tr *tracer) error {
	s.ctx = experiments.NewContext(s.opts)
	return nil
}

func (s *suite) ops(tr *tracer) []task {
	index := map[string]int{}
	for i, id := range experiments.IDs() {
		index[id] = i
	}
	tasks := make([]task, 0, len(s.exps))
	for _, e := range s.exps {
		tasks = append(tasks, task{e.ID, func(o *op) error {
			sp := tr.begin("experiments.Run " + e.ID)
			res, err := e.Run(s.ctx)
			if tr != nil {
				tr.expNS[index[e.ID]] += tr.end(sp)
				s.countStores(tr)
			}
			if err != nil {
				return err
			}
			var dg digester
			dg.Printf("%s", res.Render())
			o.digest = dg.Sum()
			return nil
		}})
	}
	return tasks
}

// sharesHeap implements sharedHeap: experiments share the Context's memo.
func (s *suite) sharesHeap() {}

// countStores adds the recordings made since the last call to the trace.
func (s *suite) countStores(tr *tracer) {
	var cur workload.StoreStats
	stores := s.ctx.TraceStores()
	for _, key := range det.SortedKeys(stores) {
		st := stores[key]
		cur.Recordings += st.Recordings
		cur.Accesses += st.Accesses
		cur.StoredBytes += st.StoredBytes
	}
	tr.c.recordings += int64(cur.Recordings - s.stores.Recordings)
	tr.c.suiteRecordedAccesses += cur.Accesses - s.stores.Accesses
	tr.c.recordedBytes += cur.StoredBytes - s.stores.StoredBytes
	s.stores = cur
}
