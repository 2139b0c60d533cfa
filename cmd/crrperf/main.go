// Command crrperf is the repository's benchmark: one program that measures
// rule discovery and rule serving end to end, checks every output it
// measures, and gives a traced per-layer breakdown of where the time goes.
//
// It runs four workloads (see README.md for why each exists):
//
//	discover-airquality        Algorithm 1 + 2 in memory, search-bound
//	discover-ooc-electricity   discovery over an mmap'd column store, scan-bound
//	predict-routed-1k          1k-row predicts through crrrouter to two crrserve nodes
//	refresh-classify-64k       64k-row predict+check while a stream maintainer hot-swaps rules
//
// Build and run it through run.sh from the repository root, which compiles
// crrperf and the CLIs it drives before anything is timed:
//
//	bash cmd/crrperf/run.sh -seed 1 -out run.json        # every workload, untraced then traced
//	bash cmd/crrperf/run.sh --workload predict-routed-1k --seed 2 --seconds 20 --trace 0
//	bash cmd/crrperf/run.sh -compare ../parent .           # paired runs of two checkouts
//
// A single-workload run prints one JSON object as its last line of output:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end-to-end metrics of BENCHMARK.json untraced (-trace 0) or its per-layer
// metrics traced (-trace 1). Every metric a run measures, the environment and
// the phase lengths go to -out (run.json); the spans of traced runs go to
// trace.jsonl beside it. A failed correctness check exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named set of inputs and the loop that drives them.
type workload struct {
	name string
	// gcPercent is the GOGC the benchmark process runs the workload at. The
	// discovery workloads measure in this process, so it is part of their
	// definition; 100 is Go's default.
	gcPercent int
	fn        func(r *run) error
}

var workloads = []workload{
	{"discover-airquality", 100, runAirQuality},
	{"discover-ooc-electricity", 25, runOOC},
	{"predict-routed-1k", 100, runPredictRouted},
	{"refresh-classify-64k", 100, runRefresh},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The metrics of BENCHMARK.json, in its order. An untraced run must produce
// every end-to-end metric and a traced run every per-layer metric, on every
// workload; main_test.go holds BENCHMARK.json to these lists.
var (
	endToEndMetrics = []string{
		"setup_s", "latency_p50_ms", "latency_p90_ms", "mem_high_mb",
	}
	perLayerMetrics = []string{
		"core.prep_ms", "core.induce_ms", "core.search_ms", "core.compact_ms",
		"core.write_ruleset_ms", "core.predict_view_ms", "core.violations_ms",
		"core.alloc_bytes_per_row", "core.mallocs",
		"predicate.generate_ms", "filter.rows_scanned", "filter.selectivity_mean",
		"regress.fit_ms", "regress.fit_count", "regress.share_scan_ms", "regress.share_scan_count",
		"discover.conditions_expanded", "discover.models_trained", "discover.models_shared",
		"discover.share_tests", "discover.stat_reuse", "discover.column_cache_hits",
		"discover.queue_depth_max", "discover.share_hit_ratio",
		"compact.translations", "compact.fusions", "compact.implied", "compact.solver_attempts",
		"compact.useful_ratio",
		"trace.overhead_pct",
	}
)

// A run sets its workload up at least setupMinRepeats times and until
// setupMinTime of set-up has been timed, at most setupMaxRepeats times;
// setup_s is the median, and the last set-up is the one measured. A set-up
// of a few milliseconds thus still reports a steady median.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 25
	setupMinTime    = time.Second
)

// metric is one measured value. Samples is how many observations it
// summarizes (passes, requests, calls).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is everything one run of one workload measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	RulesSHA  string             `json:"rules_sha256,omitempty"`
	GCPercent int                `json:"gc_percent"`
	Phases    map[string]float64 `json:"phases_s"`
	Metrics   map[string]metric  `json:"metrics"`
}

// options are the settings of one crrperf invocation.
type options struct {
	seed    int64
	seconds float64 // measured length of one run
	quick   bool    // small inputs, for the smoke test
	work    string  // working directory inside the checkout
	bin     string  // directory holding crrserve and crrrouter
	wantSHA string  // expected rules_sha256; empty = not checked (set by tests)
}

// run is the state of one workload run.
type run struct {
	ctx context.Context
	options
	traced bool
	tr     *tracer // nil when untraced
	res    *result

	// layer collects per-layer observations by metric name until execute
	// reduces each to its median.
	layer map[string][]float64
	units map[string]string
}

// set records a metric.
func (r *run) set(name, unit string, v float64, samples int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// setMedian records the median of xs, if there are any.
func (r *run) setMedian(name, unit string, xs []float64) {
	if len(xs) > 0 {
		r.set(name, unit, median(xs), len(xs))
	}
}

// observe adds one per-layer observation; untraced runs keep none.
func (r *run) observe(name, unit string, v float64) {
	if !r.traced {
		return
	}
	r.layer[name] = append(r.layer[name], v)
	r.units[name] = unit
}

// maxErrors caps the failures a result lists; the count is in Failed.
const maxErrors = 10

// fail records a failed operation or correctness check; the run then exits
// non-zero.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	if len(r.res.Errors) < maxErrors {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *run) phase(name string, seconds float64) { r.res.Phases[name] = seconds }

// measureFor returns the share of the run's length a phase gets.
func (r *run) measureFor(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// setUp runs fn repeatedly (see setupMinRepeats), records the median wall
// time as setup_s and returns the teardown of the last set-up. Each earlier
// set-up is torn down, untimed, before the next starts.
func (r *run) setUp(fn func() (teardown func(), err error)) (func(), error) {
	var times []float64
	var spent time.Duration
	minTime := setupMinTime
	if r.quick {
		minTime = 0
	}
	teardown := func() {}
	for len(times) < setupMinRepeats || (spent < minTime && len(times) < setupMaxRepeats) {
		teardown()
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		td, err := fn()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
		teardown = td
	}
	r.set("setup_s", "s", median(times), len(times))
	runtime.GC() // the discarded set-ups' garbage must not be collected while measuring
	return teardown, nil
}

// execute runs one workload once and returns what it measured. A non-nil
// error means the run could not be carried out at all.
func execute(ctx context.Context, opts options, w workload, traced bool) (*result, *tracer, error) {
	res := &result{
		Workload: w.name, Seed: opts.seed, Traced: traced, Correct: true,
		GCPercent: w.gcPercent, Phases: map[string]float64{}, Metrics: map[string]metric{},
	}
	r := &run{
		ctx: ctx, options: opts, traced: traced, res: res,
		layer: map[string][]float64{}, units: map[string]string{},
	}
	if traced {
		r.tr = newTracer(w.name)
	}
	if err := os.MkdirAll(opts.work, 0o755); err != nil {
		return nil, nil, err
	}
	old := debug.SetGCPercent(w.gcPercent)
	defer debug.SetGCPercent(old)
	runtime.GC()
	if err := w.fn(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for name, xs := range r.layer {
		r.setMedian(name, r.units[name], xs)
	}
	if opts.wantSHA != "" && res.RulesSHA != opts.wantSHA {
		r.fail("rules_sha256 %s, want %s", res.RulesSHA, opts.wantSHA)
	}
	return res, r.tr, nil
}

// resultLine is the last line of a single-workload run: the metrics of
// BENCHMARK.json for the run's mode. A correct run must have produced all
// of them; an incorrect one, which may have stopped early, reports those it
// has.
func resultLine(res *result) ([]byte, error) {
	names := endToEndMetrics
	if res.Traced {
		names = perLayerMetrics
	}
	out := make(map[string]map[string]any, len(names))
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if !res.Correct {
				continue
			}
			return nil, fmt.Errorf("%s did not produce metric %s", res.Workload, n)
		}
		out[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
}

// environment is recorded with every result file.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Quick      bool    `json:"quick"`
	Started    string  `json:"started"`
}

func currentEnvironment(opts options) environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		Seed:       opts.seed,
		RunSeconds: opts.seconds,
		Quick:      opts.quick,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the checked-out commit, or "unknown" outside a git
// work tree. git is only asked when .git is right here, so it never goes
// looking in the directories above the checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report writes the human-readable lines of one result.
func report(w io.Writer, res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	status := "correct"
	if !res.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "%s (%s, seed %d, GOGC %d): %s, %d attempted, %d failed\n",
		res.Workload, mode, res.Seed, res.GCPercent, status, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	if res.RulesSHA != "" {
		fmt.Fprintf(w, "  rules_sha256 %s\n", res.RulesSHA)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
}

func main() {
	var (
		wname   = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds = flag.Float64("seconds", 20, "measured length of one workload run")
		trace   = flag.Int("trace", -1, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics), -1 = both")
		out     = flag.String("out", "", "result file (default <work>/run.json); trace.jsonl goes beside it")
		work    = flag.String("work", ".bench_build/crrperf", "working directory for stores, registries and results")
		bin     = flag.String("bin", "", "directory holding the crrserve and crrrouter binaries (run.sh builds them)")
		quick   = flag.Bool("quick", false, "small inputs: a smoke test of the harness, not a measurement")
		compare = flag.Bool("compare", false, "compare two checkouts: crrperf -compare [-seed n] [-workload w] parentDir changeDir")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if *compare {
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two directories: parentDir changeDir")
		} else {
			err = runCompare(ctx, os.Stdout, flag.Arg(0), flag.Arg(1), *seed, *wname)
		}
	} else {
		opts := options{seed: *seed, seconds: *seconds, quick: *quick, work: *work, bin: *bin}
		if *out == "" {
			*out = filepath.Join(*work, "run.json")
		}
		err = runBenchmark(ctx, os.Stdout, opts, *wname, *trace, *out)
	}
	if err != nil {
		var ie incorrectError
		if errors.As(err, &ie) {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "crrperf:", err)
		os.Exit(2)
	}
}

// incorrectError reports runs that failed a correctness check; main exits 1
// for it, after the results were printed.
type incorrectError struct{ n int }

func (e incorrectError) Error() string {
	return fmt.Sprintf("%d run(s) failed a correctness check", e.n)
}

// runBenchmark runs the selected workloads and modes, writes the result and
// trace files, and prints every metric. With a single workload and mode the
// last line printed is its result line.
func runBenchmark(ctx context.Context, w io.Writer, opts options, wname string, trace int, out string) error {
	selected := workloads
	if wname != "all" {
		wl, ok := lookupWorkload(wname)
		if !ok {
			return fmt.Errorf("unknown workload %q", wname)
		}
		selected = []workload{wl}
	}
	modes := []bool{false, true}
	switch trace {
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	case -1:
	default:
		return fmt.Errorf("-trace %d: want 0, 1 or -1", trace)
	}
	if opts.seconds <= 0 {
		return fmt.Errorf("-seconds %g must be positive", opts.seconds)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	doc := struct {
		Environment environment `json:"environment"`
		Results     []*result   `json:"results"`
	}{Environment: currentEnvironment(opts)}
	var spans []span
	incorrect := 0
	for _, wl := range selected {
		for _, traced := range modes {
			res, tr, err := execute(ctx, opts, wl, traced)
			if err != nil {
				return err
			}
			if !res.Correct {
				incorrect++
			}
			doc.Results = append(doc.Results, res)
			spans = append(spans, tr.snapshot()...)
			report(w, res)
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	tracePath := filepath.Join(filepath.Dir(out), "trace.jsonl")
	if err := writeSpans(tracePath, spans); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s and %s\n", out, tracePath)
	if len(doc.Results) == 1 {
		line, err := resultLine(doc.Results[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	if incorrect > 0 {
		return incorrectError{incorrect}
	}
	return nil
}
