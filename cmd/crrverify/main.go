// Command crrverify runs the differential correctness harness
// (internal/verify) across the five evaluation dataset generators: the
// cross-engine discovery matrix, the row-vs-columnar classification parity
// checks, the codec round trip, compaction soundness replayed application by
// application, served-endpoint parity, and the metamorphic invariants.
//
// Usage:
//
//	crrverify                 # full matrix, 2000 rows per dataset
//	crrverify -quick          # 400 rows, serve + metamorphic suites skipped
//	crrverify -dataset Tax,Abalone -rows 1000 -json
//
// The exit status is 1 when any oracle diverges, so the command doubles as a
// CI gate. -json writes the machine-readable report; -metrics dumps the
// verify.* counters in the same Prometheus exposition crrserve serves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/eval"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/telemetry"
	"github.com/crrlab/crr/internal/verify"
)

func main() {
	var (
		rows     = flag.Int("rows", 2000, "rows generated per dataset")
		quick    = flag.Bool("quick", false, "smoke mode: 400 rows, serve and metamorphic suites skipped")
		datasets = flag.String("dataset", "", "comma-separated dataset subset (default: all five)")
		workers  = flag.Int("workers", 4, "worker count of the discovery matrix's several-worker mode")
		seed     = flag.Int64("seed", 1, "seed for the metamorphic row permutation")
		predSize = flag.Int("preds", 64, "predicates per numeric attribute")
		jsonOut  = flag.Bool("json", false, "write the JSON report to stdout")
		metrics  = flag.String("metrics", "", "write the run's metrics in Prometheus text format to this path (\"-\" = stdout)")
		verbose  = flag.Bool("v", false, "log per-oracle-family progress")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	failed, err := run(ctx, os.Stdout, runConfig{
		rows: *rows, quick: *quick, datasets: *datasets, workers: *workers,
		seed: *seed, predSize: *predSize, jsonOut: *jsonOut, metrics: *metrics,
		verbose: *verbose, timeout: *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crrverify:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

type runConfig struct {
	rows     int
	quick    bool
	datasets string
	workers  int
	seed     int64
	predSize int
	jsonOut  bool
	metrics  string
	verbose  bool
	timeout  time.Duration
}

// specs lists the five evaluation datasets in the paper's order.
func specs() []experiments.DatasetSpec {
	return []experiments.DatasetSpec{
		experiments.BirdMapSpec(),
		experiments.AirQualitySpec(),
		experiments.ElectricitySpec(),
		experiments.TaxSpec(),
		experiments.AbaloneSpec(),
	}
}

func run(ctx context.Context, w io.Writer, rc runConfig) (failed bool, err error) {
	if rc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rc.timeout)
		defer cancel()
	}
	rows := rc.rows
	if rc.quick && !flagPassed("rows") {
		rows = 400
	}
	if rows <= 0 {
		return false, fmt.Errorf("-rows %d must be positive", rows)
	}

	keep := map[string]bool{}
	for _, name := range strings.Split(rc.datasets, ",") {
		if name = strings.TrimSpace(name); name != "" {
			keep[strings.ToLower(name)] = true
		}
	}
	var targets []verify.Target
	for _, spec := range specs() {
		if len(keep) > 0 && !keep[strings.ToLower(spec.Name)] {
			continue
		}
		targets = append(targets, verify.Target{
			Name:       spec.Name,
			Rel:        spec.Gen(rows),
			XAttrs:     spec.XAttrs,
			YAttr:      spec.YAttr,
			CondAttrs:  spec.CondAttrs,
			RhoM:       spec.RhoM,
			CompactTol: spec.CompactTol,
		})
	}
	if len(targets) == 0 {
		return false, fmt.Errorf("no datasets match %q (have %s)", rc.datasets, datasetNames())
	}

	reg := telemetry.New()
	opts := verify.Options{
		Workers:         rc.workers,
		Seed:            rc.seed,
		PredSize:        rc.predSize,
		SkipServe:       rc.quick,
		SkipMetamorphic: rc.quick,
		Telemetry:       reg,
	}
	if rc.verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "crrverify: "+format+"\n", args...)
		}
	}

	report, err := verify.Run(ctx, targets, opts)
	if err != nil {
		return false, err
	}

	if rc.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return false, err
		}
	} else {
		table := eval.NewTable(fmt.Sprintf("crrverify (%d rows/dataset)", rows),
			"dataset", "rows", "rules", "compacted", "soundness apps", "oracles", "divergences")
		for _, dr := range report.Datasets {
			table.AddRowf(dr.Dataset, dr.Rows, dr.Rules, dr.CompactedRules,
				dr.SoundnessApps, dr.OraclesRun, len(dr.Divergences))
		}
		if err := table.Render(w); err != nil {
			return false, err
		}
		for _, dr := range report.Datasets {
			for _, d := range dr.Divergences {
				fmt.Fprintf(w, "DIVERGENCE %s %s: %s\n", d.Dataset, d.Oracle, d.Detail)
				if d.Reproducer != "" {
					fmt.Fprintf(w, "  reproducer: %s\n", d.Reproducer)
				}
			}
		}
		verdict := "OK"
		if report.Failed() {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "%s: %d oracle checks, %d divergences\n", verdict, report.OraclesRun, report.Divergences)
	}

	if rc.metrics != "" {
		if err := cliutil.WriteMetrics(w, rc.metrics, reg.Snapshot()); err != nil {
			return false, err
		}
	}
	return report.Failed(), nil
}

func datasetNames() string {
	var names []string
	for _, s := range specs() {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}

// flagPassed reports whether the named flag was set explicitly.
func flagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}
