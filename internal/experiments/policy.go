package experiments

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/mem"
	"searchmem/internal/obs"
	"searchmem/internal/workload"
)

// This file sweeps the batched kernel's replacement-policy zoo and the
// cache-level predictor. figP1 asks the paper's question one knob deeper
// than Figures 8-11: with shapes fixed at the rebalanced L3 + 512 MiB L4,
// how much of the remaining MPKI is replacement policy rather than
// capacity, per level? figP2 measures the level predictor (PAPERS.md,
// Jalili & Erez): how much of the probe chain can confident predictions
// skip, and what the mispredict penalty costs in attributed-MPKI error.
// Both replay the shared sweep recording, one sweep point per config,
// byte-identical serial vs parallel.

func init() {
	register(Experiment{
		ID:       "figP1",
		Title:    "Replacement-policy zoo x hierarchy level",
		PaperRef: "extension (RRIP, Jaleel et al.; PAPERS.md)",
		Run:      runFigP1,
	})
	register(Experiment{
		ID:       "figP2",
		Title:    "Cache-level predictor: table size x confidence threshold",
		PaperRef: "extension (Jalili & Erez, PAPERS.md)",
		Run:      runFigP2,
	})
}

// polVariant is one replacement configuration: a parsed policy plus the
// dead-block insertion flag ("srrip+db").
type polVariant struct {
	name string
	pol  cache.Policy
	db   bool
}

// polVariants is the default policy grid (LRU is the baseline row, not a
// grid entry).
var polVariants = []polVariant{
	{"srrip", cache.SRRIP, false},
	{"brrip", cache.BRRIP, false},
	{"drrip", cache.DRRIP, false},
	{"srrip+db", cache.SRRIP, true},
}

// polLevels is the level grid: the levels whose replacement policy the
// paper's capacity story leaves as the open knob. (L1s are latency-bound
// and tiny; policy barely moves them.)
var polLevels = []string{"L2", "L3", "L4"}

// ParsePolicyVariant resolves a figP1 grid name: a cache.Policy name or the
// dead-block composite "srrip+db". Shared with cmd/searchsim flag
// validation so unknown -policy values fail fast instead of running LRU.
func ParsePolicyVariant(name string) (cache.Policy, bool, error) {
	if name == "srrip+db" {
		return cache.SRRIP, true, nil
	}
	p, err := cache.ParsePolicy(name)
	if err != nil {
		return 0, false, fmt.Errorf("%w (or %q)", err, "srrip+db")
	}
	return p, false, nil
}

// polVariantsFor resolves the policy grid, honoring Options.CachePolicy.
func polVariantsFor(o Options) ([]polVariant, error) {
	if o.CachePolicy == "" {
		return polVariants, nil
	}
	p, db, err := ParsePolicyVariant(o.CachePolicy)
	if err != nil {
		return nil, err
	}
	return []polVariant{{name: o.CachePolicy, pol: p, db: db}}, nil
}

// polLevelsFor resolves the level grid, honoring Options.PolicyLevel.
func polLevelsFor(o Options) ([]string, error) {
	if o.PolicyLevel == "" {
		return polLevels, nil
	}
	for _, l := range polLevels {
		if l == o.PolicyLevel {
			return []string{l}, nil
		}
	}
	return nil, fmt.Errorf("unknown policy level %q (want L2, L3, or L4)", o.PolicyLevel)
}

// polBase is the shared measurement shape: tierBase's rebalanced L3 +
// 512 MiB L4 with the DRAM model attached (so AMAT uses the measured
// effective read latency, not the flat constant), except the L4 is 8-way —
// tierBase's paper-faithful direct-mapped L4 has no victim choice, which
// would make every L4 policy row identical by construction.
func polBase(c *Context) workload.MeasureConfig {
	mc := tierBase(c)
	mc.L4Assoc = 8
	mc.Mem = &mem.Config{PageBytes: tierPageBytes}
	return mc
}

// applyLevelPolicy routes one grid cell onto the MeasureConfig's per-level
// policy knobs.
func applyLevelPolicy(mc *workload.MeasureConfig, level string, v polVariant) {
	switch level {
	case "L2":
		mc.L2Policy = v.pol
	case "L3":
		mc.L3Policy = v.pol
	case "L4":
		mc.L4Policy = v.pol
	default:
		panic("unknown policy level " + level)
	}
	mc.DeadBlock = v.db
}

// levelMPKI extracts the modified level's demand MPKI from a measurement.
func levelMPKI(m workload.Metrics, level string) float64 {
	switch level {
	case "L2":
		return m.L2.MPKI(m.Instructions)
	case "L3":
		return m.L3.MPKI(m.Instructions)
	case "L4":
		return m.L4.MPKI(m.Instructions)
	}
	panic("unknown policy level " + level)
}

// polPoint is one measured grid cell.
type polPoint struct {
	level   string
	variant polVariant
	m       workload.Metrics
}

// polSweepData is the memoized figP1 outcome.
type polSweepData struct {
	baseline workload.Metrics // all-LRU
	points   []polPoint
}

// polSweep measures the all-LRU baseline and the level x policy grid over
// the shared sweep recording. Memoized per context.
func polSweep(c *Context) (*polSweepData, error) {
	c.curveMu.Lock()
	defer c.curveMu.Unlock()
	key := curveKey{kind: "polsweep"}
	if cached, ok := c.curves[key]; ok {
		return cached.(*polSweepData), nil
	}
	o := c.Opts
	variants, err := polVariantsFor(o)
	if err != nil {
		return nil, err
	}
	levels, err := polLevelsFor(o)
	if err != nil {
		return nil, err
	}
	mcs := []workload.MeasureConfig{polBase(c)} // index 0: all-LRU baseline
	var pts []polPoint
	for _, level := range levels {
		for _, v := range variants {
			mc := polBase(c)
			applyLevelPolicy(&mc, level, v)
			mcs = append(mcs, mc)
			pts = append(pts, polPoint{level: level, variant: v})
		}
	}
	ms := measurePoints(c, c.Sweep(), mcs)
	for i := range pts {
		pts[i].m = ms[i+1]
		o.logf("figP1: %s %s: MPKI %.3f, IPC %.3f",
			pts[i].level, pts[i].variant.name, levelMPKI(pts[i].m, pts[i].level), pts[i].m.IPC)
	}
	data := &polSweepData{baseline: ms[0], points: pts}
	c.curves[key] = data
	return data, nil
}

func runFigP1(c *Context) (Result, error) {
	data, err := polSweep(c)
	if err != nil {
		return nil, err
	}
	base := data.baseline
	t := &Table{
		Title:   "Figure P1: replacement policy x hierarchy level (rebalanced L3 + 8-way 512 MiB L4, DRAM model attached)",
		Headers: []string{"level", "policy", "MPKI", "dMPKI", "AMAT ns", "IPC", "dIPC"},
		Note: fmt.Sprintf("dMPKI is the modified level's demand MPKI vs the all-LRU baseline (L2 %s / L3 %s / L4 %s); IPC via the calibrated core model with the DRAM model's effective read latency",
			trimFloat(base.L2.MPKI(base.Instructions)), trimFloat(base.L3.MPKI(base.Instructions)), trimFloat(base.L4.MPKI(base.Instructions))),
	}
	for _, level := range polLevels {
		// Baseline row per level so each block reads against its own LRU.
		seen := false
		for _, p := range data.points {
			if p.level != level {
				continue
			}
			if !seen {
				t.AddRow(level, "lru", trimFloat(levelMPKI(base, level)), pct(0),
					trimFloat(base.AMATNS), trimFloat(base.IPC), pct(0))
				seen = true
			}
			baseMPKI := levelMPKI(base, level)
			mpki := levelMPKI(p.m, level)
			dm := 0.0
			if baseMPKI > 0 {
				dm = mpki/baseMPKI - 1
			}
			t.AddRow(level, p.variant.name, trimFloat(mpki), pct(dm),
				trimFloat(p.m.AMATNS), trimFloat(p.m.IPC), pct(p.m.IPC/base.IPC-1))
		}
	}
	reportPolicyMetrics(c, data)
	return t, nil
}

// reportPolicyMetrics publishes per-cell figP1 gauges into the run's metrics
// registry; every value is a pure function of the measured sweep.
func reportPolicyMetrics(c *Context, data *polSweepData) {
	reg := c.Opts.Metrics
	if reg == nil {
		return
	}
	reg.Gauge("policy_baseline_ipc").Set(data.baseline.IPC)
	reg.Gauge("policy_baseline_amat_ns").Set(data.baseline.AMATNS)
	for _, p := range data.points {
		ll := obs.L("level", p.level)
		lp := obs.L("policy", p.variant.name)
		reg.Gauge("policy_mpki", ll, lp).Set(levelMPKI(p.m, p.level))
		reg.Gauge("policy_amat_ns", ll, lp).Set(p.m.AMATNS)
		reg.Gauge("policy_ipc", ll, lp).Set(p.m.IPC)
	}
}

// predGrid is the default figP2 grid.
var (
	predBitsGrid = []int{10, 12, 14}
	predConfGrid = []int{1, 2, 3}
)

// predPoint is one measured predictor configuration.
type predPoint struct {
	bits, conf int
	block      bool // block-indexed instead of per-PC keys
	m          workload.Metrics
}

// predSweepData is the memoized figP2 outcome.
type predSweepData struct {
	baseline workload.Metrics // predictor off
	points   []predPoint
}

// predSweep measures the predictor-off baseline and the table-size x
// confidence grid (plus one block-indexed row at the default shape) over
// the shared sweep recording. Memoized per context.
func predSweep(c *Context) (*predSweepData, error) {
	c.curveMu.Lock()
	defer c.curveMu.Unlock()
	key := curveKey{kind: "predsweep"}
	if cached, ok := c.curves[key]; ok {
		return cached.(*predSweepData), nil
	}
	o := c.Opts
	bitsGrid, confGrid := predBitsGrid, predConfGrid
	if o.PredBits > 0 {
		bitsGrid = []int{o.PredBits}
	}
	if o.PredConf > 0 {
		confGrid = []int{o.PredConf}
	}
	mcs := []workload.MeasureConfig{polBase(c)} // index 0: predictor off
	var pts []predPoint
	for _, bits := range bitsGrid {
		for _, conf := range confGrid {
			mc := polBase(c)
			mc.Predictor = &cache.PredictorConfig{TableBits: uint(bits), ConfThreshold: uint8(conf)}
			mcs = append(mcs, mc)
			pts = append(pts, predPoint{bits: bits, conf: conf})
		}
	}
	// One block-indexed row at the grid's last shape, isolating the keying
	// choice (per-PC vs block address) from table geometry.
	lastBits, lastConf := bitsGrid[len(bitsGrid)-1], confGrid[len(confGrid)-1]
	mcBlock := polBase(c)
	mcBlock.Predictor = &cache.PredictorConfig{
		TableBits: uint(lastBits), ConfThreshold: uint8(lastConf), IndexBlock: true,
	}
	mcs = append(mcs, mcBlock)
	pts = append(pts, predPoint{bits: lastBits, conf: lastConf, block: true})

	ms := measurePoints(c, c.Sweep(), mcs)
	for i := range pts {
		pts[i].m = ms[i+1]
		o.logf("figP2: bits %d conf %d block=%v: skip %.1f%%, mispredict %.2f%%",
			pts[i].bits, pts[i].conf, pts[i].block,
			100*pts[i].m.Pred.SkipRate(), 100*pts[i].m.Pred.MispredictRate())
	}
	data := &predSweepData{baseline: ms[0], points: pts}
	c.curves[key] = data
	return data, nil
}

func runFigP2(c *Context) (Result, error) {
	data, err := predSweep(c)
	if err != nil {
		return nil, err
	}
	base := data.baseline
	baseMPKI := base.L3.MPKI(base.Instructions)
	t := &Table{
		Title: "Figure P2: cache-level predictor, table size x confidence threshold",
		Headers: []string{"bits", "conf", "keys", "coverage", "pred hit", "mispredict",
			"probe skip", "dMPKI", "dAMAT"},
		Note: fmt.Sprintf("predictor-off baseline: L3 MPKI %s, AMAT %s ns; prediction overlays probe accounting on the authoritative chain, so dMPKI and dAMAT are exact-zero cross-checks; probe skip is serial probes avoided vs the full chain, net of mispredict penalties",
			trimFloat(baseMPKI), trimFloat(base.AMATNS)),
	}
	for _, p := range data.points {
		keys := "per-PC"
		if p.block {
			keys = "block"
		}
		ps := p.m.Pred
		dm := 0.0
		if baseMPKI > 0 {
			dm = p.m.L3.MPKI(p.m.Instructions)/baseMPKI - 1
		}
		t.AddRow(
			fmt.Sprintf("%d", p.bits),
			fmt.Sprintf("%d", p.conf),
			keys,
			pct(ps.CoverageRate()),
			pct(ps.HitRate()),
			pct(ps.MispredictRate()),
			pct(ps.SkipRate()),
			pct(dm),
			pct(p.m.AMATNS/base.AMATNS-1),
		)
	}
	reportPredictorMetrics(c, data)
	return t, nil
}

// reportPredictorMetrics publishes per-point figP2 gauges.
func reportPredictorMetrics(c *Context, data *predSweepData) {
	reg := c.Opts.Metrics
	if reg == nil {
		return
	}
	reg.Gauge("pred_baseline_l3_mpki").Set(data.baseline.L3.MPKI(data.baseline.Instructions))
	for _, p := range data.points {
		keys := "per-PC"
		if p.block {
			keys = "block"
		}
		lb := obs.L("bits", fmt.Sprintf("%d", p.bits))
		lc := obs.L("conf", fmt.Sprintf("%d", p.conf))
		lk := obs.L("keys", keys)
		reg.Gauge("pred_coverage", lb, lc, lk).Set(p.m.Pred.CoverageRate())
		reg.Gauge("pred_hit_rate", lb, lc, lk).Set(p.m.Pred.HitRate())
		reg.Gauge("pred_skip_rate", lb, lc, lk).Set(p.m.Pred.SkipRate())
		reg.Gauge("pred_l3_mpki", lb, lc, lk).Set(p.m.L3.MPKI(p.m.Instructions))
	}
}
