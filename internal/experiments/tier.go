package experiments

import (
	"fmt"

	"searchmem/internal/mem"
	"searchmem/internal/model"
	"searchmem/internal/obs"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

// This file extends the paper's hierarchy question below the eDRAM L4: with
// the shard too large for any cache, which of its bytes deserve near (DDR)
// versus far (CXL-attached) memory? The tier sweeps drive the internal/mem
// tiered-memory model — a DRAM bank/row-buffer near tier plus a
// page-granular far tier with epoch-based placement — behind the rebalanced
// L3+L4 hierarchy of §IV, exactly the way Figures 13/14 sweep L4 geometry:
// every configuration replays the shared sweep recording as one point of
// the parallel engine, with byte-identical output.

func init() {
	register(Experiment{
		ID:       "figT1",
		Title:    "Tiered memory: near:far capacity split x placement policy",
		PaperRef: "extension (Mahar et al., PAPERS.md)",
		Run:      runFigT1,
	})
	register(Experiment{
		ID:       "figT2",
		Title:    "Tiered memory: placement-epoch sensitivity at a fixed split",
		PaperRef: "extension (Mahar et al., PAPERS.md)",
		Run:      runFigT2,
	})
}

// tierFracs is the default near:far capacity grid (fraction of the touched
// page population provisioned near).
var tierFracs = []float64{0.5, 0.25, 0.125}

// tierPolicies is the default policy grid.
var tierPolicies = []mem.PagePolicy{mem.PolicyStatic, mem.PolicyLRUEpoch, mem.PolicyFreqThreshold}

// tierPageBytes is the placement granularity used by the sweeps.
const tierPageBytes = 4096

// tierBase returns the shared measurement shape: the rebalanced 23 MiB L3
// with the paper's 512 MiB direct-mapped L4 in front of the tiered memory
// system, at sweep scale (same shape as sweepL4).
func tierBase(c *Context) workload.MeasureConfig {
	o := c.Opts
	return workload.MeasureConfig{
		Platform: c.PLT1().ScaleCaches(workload.SweepScale),
		Cores:    min(o.Threads, 8), SMTWays: 2,
		Threads:        min(o.Threads, 16),
		L3Size:         workload.SimUnits(23 << 20),
		L4Size:         workload.SimUnits(512 << 20),
		Budget:         o.Budget * 2,
		Seed:           o.Seed,
		WarmupFraction: 1.0,
	}
}

// tierPoint is one measured sweep configuration.
type tierPoint struct {
	nearFrac float64
	policy   mem.PagePolicy
	m        workload.Metrics
}

// tierSweepData is the memoized outcome shared by figT1, figT2, and the
// acceptance tests.
type tierSweepData struct {
	baseline workload.Metrics // all-near: DRAM model, no far tier
	epochLen int64
	points   []tierPoint
}

// tierFracsFor resolves the capacity grid, honoring Options.TierNearFrac.
func tierFracsFor(o Options) []float64 {
	if o.TierNearFrac > 0 {
		return []float64{o.TierNearFrac}
	}
	return tierFracs
}

// tierPoliciesFor resolves the policy grid, honoring Options.TierPolicy.
func tierPoliciesFor(o Options) ([]mem.PagePolicy, error) {
	if o.TierPolicy == "" {
		return tierPolicies, nil
	}
	p, err := mem.ParsePolicy(o.TierPolicy)
	if err != nil {
		return nil, err
	}
	return []mem.PagePolicy{p}, nil
}

// tierSweep measures the all-near baseline, derives the near-tier page
// budgets from its touched-page population, and sweeps the capacity-split x
// policy grid. Memoized per context; both phases run through measurePoints.
func tierSweep(c *Context) (*tierSweepData, error) {
	c.curveMu.Lock()
	defer c.curveMu.Unlock()
	key := curveKey{kind: "tiersweep"}
	if cached, ok := c.curves[key]; ok {
		return cached.(*tierSweepData), nil
	}
	o := c.Opts
	pols, err := tierPoliciesFor(o)
	if err != nil {
		return nil, err
	}
	fracs := tierFracsFor(o)

	// Phase 1: the all-near baseline. Its page census sizes the splits and
	// its traffic volume sizes the placement epoch.
	base := tierBase(c)
	base.Mem = &mem.Config{PageBytes: tierPageBytes}
	baseline := measurePoints(c, c.Sweep(), []workload.MeasureConfig{base})[0]
	if baseline.Mem == nil || baseline.Mem.Pages == 0 {
		return nil, fmt.Errorf("tier sweep: baseline measured no touched pages")
	}
	totalPages := baseline.Mem.Pages
	epochLen := o.TierEpochLen
	if epochLen <= 0 {
		// Several placement epochs per measured run, with a floor so tiny
		// -short runs still cross at least one boundary.
		epochLen = (baseline.Mem.Reads + baseline.Mem.Writes) / 8
		if epochLen < 256 {
			epochLen = 256
		}
	}
	o.logf("figT1: baseline pages %d, AMAT %.1f ns, epoch %d", totalPages, baseline.AMATNS, epochLen)

	// Phase 2: the grid. All configs share the replay keys with the
	// baseline, so the recording is already pinned.
	var mcs []workload.MeasureConfig
	var pts []tierPoint
	for _, frac := range fracs {
		nearPages := int64(float64(totalPages) * frac)
		if nearPages < 1 {
			nearPages = 1
		}
		for _, pol := range pols {
			mc := tierBase(c)
			mc.Mem = &mem.Config{
				PageBytes: tierPageBytes,
				Far: &mem.FarConfig{
					NearPages: nearPages,
					Policy:    pol,
					EpochLen:  epochLen,
				},
			}
			mcs = append(mcs, mc)
			pts = append(pts, tierPoint{nearFrac: frac, policy: pol})
		}
	}
	for i, m := range measurePoints(c, c.Sweep(), mcs) {
		pts[i].m = m
		o.logf("figT1: near %.3f %s: AMAT %.1f ns, far-shard-pages %.0f%%",
			pts[i].nearFrac, pts[i].policy, m.AMATNS, 100*m.Mem.FarPageFrac(trace.Shard))
	}
	data := &tierSweepData{baseline: baseline, epochLen: epochLen, points: pts}
	c.curves[key] = data
	return data, nil
}

// tierDollars prices a provisioned split at paper scale: the simulated page
// population scaled back to paper bytes, near pages at DDR cost and the
// rest at far-tier cost.
func tierDollars(totalPages, nearPages int64) float64 {
	near := workload.PaperUnits(nearPages * tierPageBytes)
	far := workload.PaperUnits((totalPages - nearPages) * tierPageBytes)
	return mem.DefaultCost.Dollars(near, far)
}

// tierQPSRel converts AMAT to relative QPS via Equation 1 (cores and SMT
// are constant across the sweep, so IPC ratio is QPS ratio).
func tierQPSRel(amatNS, baseAMATNS float64) float64 {
	return model.IPCFromAMAT(amatNS) / model.IPCFromAMAT(baseAMATNS)
}

// migrationGBs converts migration volume to bandwidth over the mem model's
// own virtual duration ((Reads+Writes) * ArrivalNS).
func migrationGBs(st *mem.Stats, arrivalNS float64) float64 {
	durNS := float64(st.Reads+st.Writes) * arrivalNS
	if durNS <= 0 {
		return 0
	}
	return float64(st.MigratedBytes) / durNS // bytes/ns = GB/s
}

func runFigT1(c *Context) (Result, error) {
	data, err := tierSweep(c)
	if err != nil {
		return nil, err
	}
	base := data.baseline
	baseDollars := tierDollars(base.Mem.Pages, base.Mem.Pages)
	arrival := mem.Config{}.ArrivalNS()

	t := &Table{
		Title: "Figure T1: near:far capacity split x placement policy (tiered memory behind the 512 MiB L4)",
		Headers: []string{"near", "policy", "AMAT ns", "dAMAT", "row-hit",
			"far shard pages", "far reads", "mig GB/s", "QPS/mem$"},
		Note: fmt.Sprintf("all-near baseline AMAT %s ns; QPS via Eq. 1; memory dollars at %s/GiB near, %s/GiB far (paper-scale capacity); epoch %d transactions",
			trimFloat(base.AMATNS), trimFloat(mem.DefaultCost.NearDollarsPerGiB), trimFloat(mem.DefaultCost.FarDollarsPerGiB), data.epochLen),
	}
	t.AddRow("100%", "all-near", trimFloat(base.AMATNS), pct(0), pct(base.Mem.RowHitRate()),
		pct(0), pct(0), "0", trimFloat(1.0))
	for _, p := range data.points {
		st := p.m.Mem
		rel := tierQPSRel(p.m.AMATNS, base.AMATNS)
		dollars := tierDollars(base.Mem.Pages, st.NearPages)
		qpd := rel * baseDollars / dollars
		t.AddRow(
			pct(p.nearFrac),
			p.policy.String(),
			trimFloat(p.m.AMATNS),
			pct(p.m.AMATNS/base.AMATNS-1),
			pct(st.RowHitRate()),
			pct(st.FarPageFrac(trace.Shard)),
			pct(st.FarReadFrac()),
			trimFloat(migrationGBs(st, arrival)),
			trimFloat(qpd),
		)
	}
	reportTierMetrics(c, data)
	return t, nil
}

// reportTierMetrics publishes per-point tier gauges into the run's metrics
// registry (cmd/searchsim -metrics). Every value is a pure function of the
// measured sweep, so the registry stays byte-deterministic for a fixed seed.
func reportTierMetrics(c *Context, data *tierSweepData) {
	reg := c.Opts.Metrics
	if reg == nil {
		return
	}
	base := data.baseline
	reg.Gauge("tier_baseline_amat_ns").Set(base.AMATNS)
	reg.Gauge("tier_baseline_row_hit_rate").Set(base.Mem.RowHitRate())
	arrival := mem.Config{}.ArrivalNS()
	baseDollars := tierDollars(base.Mem.Pages, base.Mem.Pages)
	for _, p := range data.points {
		st := p.m.Mem
		ln := obs.L("near", pct(p.nearFrac))
		lp := obs.L("policy", p.policy.String())
		reg.Gauge("tier_amat_ns", ln, lp).Set(p.m.AMATNS)
		reg.Gauge("tier_row_hit_rate", ln, lp).Set(st.RowHitRate())
		reg.Gauge("tier_far_shard_page_frac", ln, lp).Set(st.FarPageFrac(trace.Shard))
		reg.Gauge("tier_far_read_frac", ln, lp).Set(st.FarReadFrac())
		reg.Gauge("tier_migration_gbs", ln, lp).Set(migrationGBs(st, arrival))
		reg.Gauge("tier_qps_per_mem_dollar", ln, lp).Set(
			tierQPSRel(p.m.AMATNS, base.AMATNS) * baseDollars / tierDollars(base.Mem.Pages, st.NearPages))
	}
}

func runFigT2(c *Context) (Result, error) {
	data, err := tierSweep(c)
	if err != nil {
		return nil, err
	}
	o := c.Opts
	pols, err := tierPoliciesFor(o)
	if err != nil {
		return nil, err
	}
	// Dynamic policies only: static never migrates, so epoch length is
	// moot for it.
	var dyn []mem.PagePolicy
	for _, p := range pols {
		if p != mem.PolicyStatic {
			dyn = append(dyn, p)
		}
	}
	if len(dyn) == 0 {
		return nil, fmt.Errorf("figT2: no dynamic policy selected (TierPolicy %q)", o.TierPolicy)
	}
	base := data.baseline
	frac := 0.25
	if o.TierNearFrac > 0 {
		frac = o.TierNearFrac
	}
	nearPages := int64(float64(base.Mem.Pages) * frac)
	if nearPages < 1 {
		nearPages = 1
	}

	epochs := []int64{data.epochLen / 4, data.epochLen, data.epochLen * 4}
	if epochs[0] < 64 {
		epochs[0] = 64
	}
	var mcs []workload.MeasureConfig
	type cell struct {
		pol   mem.PagePolicy
		epoch int64
	}
	var cells []cell
	for _, pol := range dyn {
		for _, ep := range epochs {
			mc := tierBase(c)
			mc.Mem = &mem.Config{
				PageBytes: tierPageBytes,
				Far: &mem.FarConfig{
					NearPages: nearPages,
					Policy:    pol,
					EpochLen:  ep,
				},
			}
			mcs = append(mcs, mc)
			cells = append(cells, cell{pol: pol, epoch: ep})
		}
	}
	arrival := mem.Config{}.ArrivalNS()
	t := &Table{
		Title: fmt.Sprintf("Figure T2: placement-epoch sensitivity at a %s near split", pct(frac)),
		Headers: []string{"policy", "epoch", "AMAT ns", "dAMAT", "migrations",
			"mig GB/s", "far reads"},
		Note: fmt.Sprintf("all-near baseline AMAT %s ns; short epochs react faster but migrate more", trimFloat(base.AMATNS)),
	}
	for i, m := range measurePoints(c, c.Sweep(), mcs) {
		st := m.Mem
		t.AddRow(
			cells[i].pol.String(),
			fmt.Sprintf("%d", cells[i].epoch),
			trimFloat(m.AMATNS),
			pct(m.AMATNS/base.AMATNS-1),
			fmt.Sprintf("%d", st.Migrations),
			trimFloat(migrationGBs(st, arrival)),
			pct(st.FarReadFrac()),
		)
	}
	return t, nil
}
