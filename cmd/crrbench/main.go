// Command crrbench regenerates the tables and figures of the paper's
// evaluation (§VI) on the synthetic dataset substitutes.
//
// Usage:
//
//	crrbench -exp fig2            # one experiment
//	crrbench -exp all             # everything (EXPERIMENTS.md source data)
//	crrbench -exp fig3 -scale 0.2 # shrink instance sizes for a quick look
//	crrbench -list                # show experiment ids
//
// Long sweeps can be bounded with -timeout (every in-flight discovery stops
// within one queue iteration) and profiled with -pprof ADDR. Each experiment
// table carries per-row discovery telemetry (models trained/shared,
// conditions expanded) and is followed by a summary line totaling them.
// -format csv writes one CSV document: a single header, then every
// experiment's rows.
//
// Performance of the system itself is measured by cmd/crrperf, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
	reg := telemetry.New()
	if err := run(ctx, os.Stdout, reg, *exp, *scale, *format); err != nil {
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

// run writes the selected experiments to w in the given format and mirrors
// their telemetry totals into reg.
func run(ctx context.Context, w io.Writer, reg *telemetry.Registry, exp string, scale float64, format string) error {
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", format)
	}
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %g is outside (0, 1]", scale)
	}
	if exp == "all" {
		for i, e := range experiments.Registry() {
			if err := runOne(ctx, w, reg, e, scale, format, i == 0); err != nil {
				return err
			}
		}
		return nil
	}
	e, err := experiments.Lookup(exp)
	if err != nil {
		return err
	}
	return runOne(ctx, w, reg, e, scale, format, true)
}

// runOne runs one experiment and writes its rows to w: an aligned table
// followed by a telemetry line, or CSV rows preceded by the header when
// csvHeader is set.
func runOne(ctx context.Context, w io.Writer, reg *telemetry.Registry, e experiments.Experiment, scale float64, format string, csvHeader bool) error {
	start := time.Now()
	rows, err := e.Run(ctx, scale)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	elapsed := time.Since(start)
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
	if format == "csv" {
		return experiments.WriteRowsCSV(w, rows, csvHeader)
	}
	if err := experiments.RenderRows(w, fmt.Sprintf("[%s] %s", e.ID, e.Artifact), rows); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "telemetry: models trained=%d, models shared=%d, conditions expanded=%d, wall=%s\n\n",
		trained, shared, expanded, elapsed.Round(time.Millisecond))
	return err
}
