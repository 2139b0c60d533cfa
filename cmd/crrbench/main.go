// Command crrbench regenerates the tables and figures of the paper's
// evaluation (§VI) on the synthetic dataset substitutes.
//
// Usage:
//
//	crrbench -exp fig2            # one experiment
//	crrbench -exp all             # everything (EXPERIMENTS.md source data)
//	crrbench -exp fig3 -scale 0.2 # shrink instance sizes for a quick look
//	crrbench -compare             # hot-path before/after (stats vs full pass)
//	crrbench -serve               # /v1/predict throughput, JSON vs binary
//	crrbench -strategies          # induction strategies: rules / RMSE / latency
//	crrbench -ooc                 # out-of-core store build + discovery scaling
//	crrbench -list                # show experiment ids
//
// Long sweeps can be bounded with -timeout (every in-flight discovery stops
// within one queue iteration) and profiled with -pprof ADDR. Each experiment
// table carries per-row discovery telemetry (models trained/shared,
// conditions expanded) and is followed by a summary line totaling them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"time"

	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or \"all\"")
		scale   = flag.Float64("scale", 1.0, "instance-size scale in (0, 1]")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		format  = flag.String("format", "table", "output format: table or csv")
		compare = flag.Bool("compare", false, "run the hot-path before/after comparison (sufficient statistics vs full pass) and exit")
		sbench  = flag.Bool("serve", false, "measure /v1/predict serve throughput (JSON vs binary columnar, through the SDK) and exit")
		strats  = flag.Bool("strategies", false, "compare the induction strategies (lattice vs growprune vs stability: rule count, test RMSE, discovery latency) and exit")
		ooc     = flag.Bool("ooc", false, "run the out-of-core column-store scaling benchmark (chunked build + mmap-backed discovery per size) and exit")
		oocRows = flag.String("ooc-rows", "1000000,3000000,10000000", "with -ooc: comma-separated store sizes in rows")
		oocChnk = flag.Int("ooc-chunk", 0, "with -ooc: store build chunk rows (0 = default)")
		out     = flag.String("out", "", "with -strategies or -ooc: also write the results as JSON to this path (e.g. BENCH_strategies.json, BENCH_ooc.json)")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (e.g. 5m; 0 = no limit)")
		pprof   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		metrics = flag.String("metrics", "", "write the sweep's aggregate metrics in Prometheus text format to this path (\"-\" = stdout), the same exposition crrserve serves at /metrics")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-18s %s\n", e.ID, e.Artifact)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "crrbench: pprof:", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprof)
	}
	if *compare {
		if err := runCompare(ctx, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "crrbench:", err)
			os.Exit(1)
		}
		return
	}
	if *sbench {
		if err := runServeBench(ctx, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "crrbench:", err)
			os.Exit(1)
		}
		return
	}
	if *strats {
		if err := runStrategies(ctx, *scale, *out); err != nil {
			fmt.Fprintln(os.Stderr, "crrbench:", err)
			os.Exit(1)
		}
		return
	}
	if *ooc {
		if err := runOOC(ctx, *oocRows, *oocChnk, *out); err != nil {
			fmt.Fprintln(os.Stderr, "crrbench:", err)
			os.Exit(1)
		}
		return
	}
	reg := telemetry.New()
	if err := run(ctx, reg, *exp, *scale, *format); err != nil {
		fmt.Fprintln(os.Stderr, "crrbench:", err)
		os.Exit(1)
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "crrbench:", err)
			os.Exit(1)
		}
	}
}

// writeMetrics dumps the aggregate sweep counters in the same Prometheus
// text exposition crrserve serves at GET /metrics.
func writeMetrics(path string, snap telemetry.Snapshot) error {
	if path == "-" {
		return snap.WriteText(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCompare renders the hot-path before/after table: the same sequential
// mine with the sufficient-statistics fast path on (default) and off
// (regress.FullPass), per dataset, with a speedup column and the output
// identity verdict. A divergent output is an error — the fast path must not
// change what discovery finds.
func runCompare(ctx context.Context, scale float64) error {
	rows, err := experiments.HotPathCompare(ctx, scale)
	if err != nil {
		return err
	}
	if err := experiments.RenderCompareRows(os.Stdout, rows); err != nil {
		return err
	}
	for _, r := range rows {
		if !r.Identical {
			return fmt.Errorf("compare %s: fast and full-pass output diverged", r.Dataset)
		}
	}
	return nil
}

// runStrategies renders the induction-strategy comparison — every strategy
// behind the core.Strategy seam on the five evaluation datasets, scored for
// rule count, train/test RMSE (interleaved even/odd split) and discovery
// wall time — and optionally writes the rows as JSON (BENCH_strategies.json).
func runStrategies(ctx context.Context, scale float64, outPath string) error {
	rows, err := experiments.StrategyCompare(ctx, scale)
	if err != nil {
		return err
	}
	if err := experiments.RenderStrategyRows(os.Stdout, rows); err != nil {
		return err
	}
	if outPath == "" {
		return nil
	}
	doc := struct {
		Description string                    `json:"description"`
		Command     string                    `json:"command"`
		Strategies  []string                  `json:"strategies"`
		Rows        []experiments.StrategyRow `json:"rows"`
	}{
		Description: "Induction-strategy comparison: rule count, models trained, discovery latency and train/test RMSE per strategy on the five evaluation datasets (interleaved even/odd train/test split, sequential engine).",
		Command:     fmt.Sprintf("crrbench -strategies -scale %g", scale),
		Strategies:  experiments.StrategyNames(),
		Rows:        rows,
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(ctx context.Context, reg *telemetry.Registry, exp string, scale float64, format string) error {
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", format)
	}
	if exp == "all" {
		for _, e := range experiments.Registry() {
			if err := runOne(ctx, reg, e, scale, format); err != nil {
				return err
			}
		}
		return nil
	}
	e, err := experiments.Lookup(exp)
	if err != nil {
		return err
	}
	return runOne(ctx, reg, e, scale, format)
}

func runOne(ctx context.Context, reg *telemetry.Registry, e experiments.Experiment, scale float64, format string) error {
	start := time.Now()
	rows, err := e.Run(ctx, scale)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	elapsed := time.Since(start)
	if format == "csv" {
		return experiments.WriteRowsCSV(os.Stdout, rows)
	}
	if err := experiments.RenderRows(os.Stdout, fmt.Sprintf("[%s] %s", e.ID, e.Artifact), rows); err != nil {
		return err
	}
	var trained, shared, expanded int
	for _, r := range rows {
		trained += r.Trained
		shared += r.Shared
		expanded += r.Expanded
	}
	// Mirror the summary totals into the registry so -metrics renders the
	// sweep through the same exposition path the server uses.
	reg.Counter(telemetry.MetricModelsTrained).Add(int64(trained))
	reg.Counter(telemetry.MetricModelsShared).Add(int64(shared))
	reg.Counter(telemetry.MetricConditionsExpanded).Add(int64(expanded))
	reg.Histogram("bench." + e.ID + ".wall").Observe(elapsed)
	fmt.Printf("telemetry: models trained=%d, models shared=%d, conditions expanded=%d, wall=%s\n\n",
		trained, shared, expanded, elapsed.Round(time.Millisecond))
	return nil
}
