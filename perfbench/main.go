// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed host-time budget, times the calls it makes into
// each layer of the simulator from outside, checks every simulated output
// against a reference digest, and prints one JSON result line last.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
//
// A run repeats passes until the budget is spent. A pass builds its inputs
// (set-up) and then runs every operation of the workload on them. With
// --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 passes alternate untraced and traced, the traced ones time
// every layer boundary, and the result carries the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// op is one checked operation of a pass: an experiment, a hierarchy design,
// a search profile or a fleet scenario. digest hashes its simulated output.
type op struct {
	name   string
	digest string
	err    error
	// accesses and queries count the simulated accesses driven through
	// cache.Hierarchy and the simulated queries served, for the derived
	// rates.
	accesses, queries int64
}

// task is one operation of a pass. run fills in o's digest and work
// counts.
type task struct {
	name string
	run  func(o *op) error
}

// pass is one pass's state. setup builds the inputs the operations share;
// ops lists the operations. tr is nil on untraced passes.
type pass interface {
	setup(tr *tracer) error
	ops(tr *tracer) []task
}

// sharedHeap marks a pass whose operations share memoized state: they run
// back to back, as the command-line tool runs them, without the heap
// collection that otherwise starts each operation from a collected heap.
type sharedHeap interface {
	sharesHeap()
}

// crossChecker is a workload with checks run once per run, after the
// measured passes: they compare the benchmark's path with an independent
// one and are not timed.
type crossChecker interface {
	crossCheck() []task
}

// workloads lists each workload, in BENCHMARK.json order, with the
// constructor of a fresh pass.
var workloads = []struct {
	name    string
	newPass func(cfg *config) pass
}{
	{"suite", newSuite},
	{"sweep", newSweep},
	{"build", newBuild},
	{"fleet", newFleet},
}

// passFor returns the pass constructor of the named workload, or nil.
func passFor(name string) func(cfg *config) pass {
	for _, w := range workloads {
		if w.name == name {
			return w.newPass
		}
	}
	return nil
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// out is the directory the traced run writes its spans to ("" = none).
	out string
	// tiny shrinks every workload to test size; references only hold for
	// the full size.
	tiny bool
}

// refSeed is the seed the committed reference digests were made with.
const refSeed = 1

// minSetups is how many set-up samples a run collects at least. A pass
// whose set-up is shorter than minSetupSample contributes none; its
// samples come from repeated set-ups after the passes.
const minSetups = 5

func main() {
	var cfg config
	var traceFlag int
	var updateRef string
	flag.StringVar(&cfg.workload, "workload", "", "workload: suite, sweep, build or fleet")
	flag.Uint64Var(&cfg.seed, "seed", refSeed, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for the traced run's span file")
	flag.StringVar(&updateRef, "update-ref", "", "write this run's digests into the given reference file")
	flag.Parse()
	if passFor(cfg.workload) == nil || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload suite|sweep|build|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if updateRef != "" && cfg.seed != refSeed {
		fmt.Fprintf(os.Stderr, "perfbench: references are made with --seed %d\n", refSeed)
		os.Exit(2)
	}

	res, err := run(&cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if updateRef != "" {
		if err := writeReference(updateRef, cfg.workload, res.digests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is a run's printed result plus the first pass's op digests.
type runResult struct {
	out     result
	digests map[string]string
	// ops lists the op names of the first pass in run order.
	ops []string
}

// run measures cfg.workload for cfg.seconds, writing the human-readable
// report to w.
func run(cfg *config, w io.Writer) (runResult, error) {
	newPass := passFor(cfg.workload)
	chk := newChecker(cfg)
	var acc *tracer
	if cfg.trace {
		acc = newTracer()
	}
	start := now()
	deadline := start + int64(cfg.seconds*1e9)
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	var walls, tracedWalls, setups []float64
	for pass := 0; ; pass++ {
		traced := cfg.trace && pass%2 == 1
		var tr *tracer
		if traced {
			tr = acc
			tr.startPass()
		}
		// Each pass starts from a collected heap, so garbage from the
		// previous pass neither paces its collections nor adds to its peak.
		runtime.GC()
		wall, setup := runPass(newPass(cfg), tr, chk)
		if setup >= minSetupSample {
			setups = append(setups, setup)
		}
		if traced {
			tracedWalls = append(tracedWalls, wall)
		} else {
			walls = append(walls, wall)
		}
		// Stop once another pass would end further past the deadline than
		// half a pass, so a run measures close to its budget.
		if pass+1 >= minPasses && now()+int64(wall*1e9)/2 >= deadline {
			break
		}
	}
	// Set-up is sampled at least minSetups times, so its median stands on
	// more than one pass even when a pass fills the whole budget.
	runtime.GC()
	for len(setups) < minSetups {
		s, err := setupSample(newPass, cfg)
		if err != nil {
			chk.fail("setup", err)
		}
		setups = append(setups, s)
	}

	if cc, ok := newPass(cfg).(crossChecker); ok {
		for _, t := range cc.crossCheck() {
			chk.check(runTask(t))
		}
	}

	rss := peakRSSMiB()
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%v passes=%d host_s=%.3f\n",
		cfg.workload, cfg.seed, cfg.trace, len(walls)+len(tracedWalls), secondsSince(start))
	report(w, "wall_s", "s", walls)
	report(w, "setup_s", "s", setups)
	fmt.Fprintf(w, "  %-20s %.1f MiB (ru_maxrss, whole process)\n", "peak_rss_mib", rss)
	for _, d := range chk.derived(median(walls)) {
		fmt.Fprintf(w, "  %-20s %.6g %s\n", d.name, d.value, d.unit)
	}
	fmt.Fprintf(w, "  %-20s %.6g (%d/%d)\n", "ops_failed_frac",
		float64(chk.failed)/float64(max(chk.attempted, 1)), chk.failed, chk.attempted)

	res := runResult{digests: chk.first, ops: chk.order}
	res.out = result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
	}
	if cfg.trace {
		res.out.Metrics = acc.metrics(median(tracedWalls), median(walls))
		acc.ledger(w, cfg.workload, median(tracedWalls))
		if cfg.out != "" {
			path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
			if err := acc.writeSpans(path); err != nil {
				return res, err
			}
			fmt.Fprintf(w, "  spans written to %s\n", path)
		}
	} else {
		res.out.Metrics = map[string]metric{
			"wall_s":       {median(walls), "s"},
			"setup_s":      {median(setups), "s"},
			"peak_rss_mib": {rss, "MiB"},
		}
	}
	return res, nil
}

// minSetupSample is the shortest set-up a single timing resolves well.
const minSetupSample = 0.02

// setupSample times the set-up of fresh passes one at a time, repeating
// it until minSetupSample seconds have passed, and returns the median.
func setupSample(newPass func(*config) pass, cfg *config) (float64, error) {
	t0 := now()
	var xs []float64
	for secondsSince(t0) < minSetupSample {
		t1 := now()
		if err := guard(func() error { return newPass(cfg).setup(nil) }); err != nil {
			return secondsSince(t1), err
		}
		xs = append(xs, secondsSince(t1))
	}
	return median(xs), nil
}

// runPass runs one pass and returns its host seconds in set-up plus
// operations, and in set-up alone. A failed set-up fails the pass as one
// operation. Unless the pass shares its heap, the heap is collected before
// each operation, untimed, so one operation's garbage neither paces the
// next one's collections nor adds to its peak memory.
func runPass(p pass, tr *tracer, chk *checker) (wall, setup float64) {
	sp := tr.begin("pass")
	defer tr.end(sp)
	t0 := now()
	ssp := tr.begin("setup")
	err := guard(func() error { return p.setup(tr) })
	tr.end(ssp)
	setupNS := now() - t0
	if err != nil {
		chk.fail("setup", err)
		return float64(setupNS) / 1e9, float64(setupNS) / 1e9
	}
	_, shared := p.(sharedHeap)
	var opsNS int64
	for _, t := range p.ops(tr) {
		if !shared {
			runtime.GC()
		}
		t1 := now()
		o := runTask(t)
		opsNS += now() - t1
		chk.check(o)
	}
	return float64(setupNS+opsNS) / 1e9, float64(setupNS) / 1e9
}

// runTask runs one operation, turning a panic into its error.
func runTask(t task) op {
	o := op{name: t.name}
	o.err = guard(func() error { return t.run(&o) })
	return o
}

// guard runs f, turning a panic into an error.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

// report prints one timing's median, its highest percentile with at least
// ten samples beyond it, and its sample count.
func report(w io.Writer, name, unit string, xs []float64) {
	pct := "no percentile with 10 samples beyond it"
	for _, p := range []float64{99.9, 99, 90} {
		if float64(len(xs))*(1-p/100) >= 10 {
			pct = fmt.Sprintf("p%g %.6g %s", p, quantile(xs, p/100), unit)
			break
		}
	}
	fmt.Fprintf(w, "  %-20s median %.6g %s, %s, n=%d, range [%.6g, %.6g]\n",
		name, median(xs), unit, pct, len(xs), quantile(xs, 0), quantile(xs, 1))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output differs")
