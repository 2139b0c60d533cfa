// Command crrdiscover mines conditional regression rules from a CSV file:
// Algorithm 1 (CRR searching with model sharing) optionally followed by
// Algorithm 2 (compaction with inference).
//
// Usage:
//
//	crrdiscover -input data.csv -y Tax -x Salary -cond State,MaritalStatus -rho 60 -compact
//	crrdiscover -store -input power.crrcol -y usage -x temperature -rho 12
//
// The CSV needs a header row; column kinds are inferred (numeric when every
// non-empty cell parses as a float). Empty cells are treated as missing.
//
// With -store, -input names an out-of-core column store directory (built by
// crrgen -store or colstore.BuildCSVFile) instead of a CSV: the store is
// memory-mapped and mined in place, so datasets far past RAM discover
// without ever materializing tuples. Tuple-only post-passes (-prune, the
// coverage/RMSE evaluation) are unavailable there.
//
// -strategy selects the induction strategy behind Algorithm 1's seam:
// "lattice" (the paper's walk, default) or "growprune" (per-seed
// grow/prune).
//
// Long mines can be bounded with -timeout (the run stops within one queue
// iteration and reports the cancellation) and profiled with -pprof ADDR
// (serves net/http/pprof). A telemetry summary — conditions expanded, models
// trained vs. shared, wall time per phase — is printed after every run.
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
	"strings"
	"time"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/colstore"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/eval"
	"github.com/crrlab/crr/internal/induction"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

func main() {
	var (
		input    = flag.String("input", "", "input CSV path, or a column store directory with -store (required)")
		store    = flag.Bool("store", false, "treat -input as an out-of-core column store directory (mmap'd, no tuples in memory)")
		yName    = flag.String("y", "", "target attribute name (required)")
		xNames   = flag.String("x", "", "comma-separated regression attributes (required)")
		condCols = flag.String("cond", "", "comma-separated condition attributes (default: x + categorical columns)")
		rhoM     = flag.Float64("rho", 1.0, "maximum bias ρ_M")
		predSize = flag.Int("preds", 0, "predicates per numeric attribute (0 = every domain value)")
		family   = flag.String("family", "F1", "model family: F1 (linear), F2 (ridge), F3 (mlp)")
		compact  = flag.Bool("compact", false, "run Algorithm 2 compaction after discovery")
		tol      = flag.Float64("compact-tol", 0, "model tolerance for compaction (0 = exact)")
		prune    = flag.Bool("prune", false, "merge statistically indistinguishable adjacent windows before compaction")
		workers  = flag.Int("workers", 1, "discovery worker count (0 = 1, <0 = one per CPU); only 1 is deterministic")
		strategy = flag.String("strategy", "lattice", "induction strategy: lattice or growprune")
		seed     = flag.Int64("seed", 0, "random seed (predicate generation, random queue order)")
		timeout  = flag.Duration("timeout", 0, "abort discovery after this duration (e.g. 30s; 0 = no limit)")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		save     = flag.String("save", "", "write the final rule set as JSON to this path")
		metrics  = flag.String("metrics", "", "write the run's metrics in Prometheus text format to this path (\"-\" = stdout), the same exposition crrserve serves at /metrics")
		mergeWin = flag.Float64("merge-windows", 0, "collapse touching windows whose y=δ agree within this tolerance (widens ρ accordingly)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, runConfig{
		input: *input, store: *store, yName: *yName, xNames: *xNames, condCols: *condCols,
		rhoM: *rhoM, predSize: *predSize, family: *family,
		compact: *compact, tol: *tol, prune: *prune, workers: *workers, save: *save,
		strategy:     *strategy,
		mergeWindows: *mergeWin, seed: *seed, timeout: *timeout, pprofAddr: *pprof,
		metrics: *metrics,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "crrdiscover:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	input, yName, xNames, condCols string
	store                          bool
	rhoM                           float64
	predSize                       int
	family                         string
	compact                        bool
	tol                            float64
	prune                          bool
	workers                        int
	strategy                       string
	save                           string
	mergeWindows                   float64
	seed                           int64
	timeout                        time.Duration
	pprofAddr                      string
	metrics                        string
}

func run(ctx context.Context, rc runConfig) error {
	return runTo(ctx, os.Stdout, rc)
}

func runTo(ctx context.Context, w io.Writer, rc runConfig) error {
	input, yName, xNames, condCols := rc.input, rc.yName, rc.xNames, rc.condCols
	rhoM, predSize, family, compact, tol := rc.rhoM, rc.predSize, rc.family, rc.compact, rc.tol
	if input == "" || yName == "" || xNames == "" {
		return fmt.Errorf("-input, -y and -x are required (see -h)")
	}
	if rc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rc.timeout)
		defer cancel()
	}
	if rc.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(rc.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "crrdiscover: pprof:", err)
			}
		}()
		fmt.Fprintf(w, "pprof listening on http://%s/debug/pprof/\n", rc.pprofAddr)
	}
	reg := telemetry.New()

	if rc.store && rc.prune {
		return fmt.Errorf("-prune re-fits over tuples and is unavailable with -store")
	}

	stopLoad := reg.Time(telemetry.PhaseLoad)
	// Load either path into (schema, rel | cols): a parsed CSV relation, or
	// the adopted ColumnSet of an mmap'd store with no tuples anywhere.
	var rel *dataset.Relation
	var cols *dataset.ColumnSet
	var schema *dataset.Schema
	if rc.store {
		st, err := colstore.OpenWith(input, colstore.OpenOptions{Telemetry: reg})
		if err != nil {
			return err
		}
		defer st.Close()
		cols, schema = st.Columns(), st.Schema()
	} else {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err = dataset.ReadCSV(f)
		if err != nil {
			return err
		}
		schema = rel.Schema
	}

	yattr, err := schema.Index(yName)
	if err != nil {
		return err
	}
	var xattrs []int
	for _, name := range strings.Split(xNames, ",") {
		i, err := schema.Index(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		xattrs = append(xattrs, i)
	}
	var cond []int
	if condCols != "" {
		for _, name := range strings.Split(condCols, ",") {
			i, err := schema.Index(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			cond = append(cond, i)
		}
	} else {
		seen := map[int]bool{}
		for _, a := range xattrs {
			if a != yattr && !seen[a] {
				seen[a] = true
				cond = append(cond, a)
			}
		}
		for i := 0; i < schema.Len(); i++ {
			if i != yattr && !seen[i] && schema.Attr(i).Kind == dataset.Categorical {
				seen[i] = true
				cond = append(cond, i)
			}
		}
	}

	var trainer regress.Trainer
	switch strings.ToUpper(family) {
	case "F1":
		trainer = regress.LinearTrainer{}
	case "F2":
		trainer = regress.LinearTrainer{Ridge: 1}
	case "F3":
		trainer = regress.NewMLPTrainer(1)
	default:
		return fmt.Errorf("unknown family %q (want F1, F2 or F3)", family)
	}
	stopLoad()

	stopPreds := reg.Time(telemetry.PhasePredicates)
	gcfg := predicate.GeneratorConfig{Size: predSize, Seed: rc.seed}
	var preds []predicate.Predicate
	if rc.store {
		preds = predicate.GenerateColumns(cols, cond, gcfg)
	} else {
		preds = predicate.Generate(rel, cond, gcfg)
	}
	stopPreds()

	var strat core.Strategy
	if rc.strategy != "" {
		if strat, err = induction.Lookup(rc.strategy); err != nil {
			return err
		}
	}

	stopDiscover := reg.Time(telemetry.PhaseDiscover)
	dcfg := core.DiscoverConfig{
		XAttrs:    xattrs,
		YAttr:     yattr,
		RhoM:      rhoM,
		Preds:     preds,
		Trainer:   trainer,
		Seed:      rc.seed,
		Workers:   rc.workers,
		Strategy:  strat,
		Telemetry: reg,
	}
	var res *core.DiscoverResult
	if rc.store {
		res, err = core.DiscoverColumns(ctx, cols, core.WithConfig(dcfg))
	} else {
		res, err = core.Discover(ctx, rel, core.WithConfig(dcfg))
	}
	stopDiscover()
	if err != nil {
		return err
	}
	rules := res.Rules
	if rc.prune {
		pruned, pst, err := core.Prune(rel, rules, core.PruneOptions{Trainer: trainer})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "pruned to %d rules (%d of %d adjacent pairs merged)\n",
			pruned.NumRules(), pst.Merged, pst.Tested)
		rules = pruned
	}
	fmt.Fprintf(w, "discovered %d rules (%d models trained, %d shared, %d nodes)\n",
		rules.NumRules(), res.Stats.ModelsTrained, res.Stats.ShareHits, res.Stats.NodesExpanded)
	stopCompact := reg.Time(telemetry.PhaseCompact)
	if compact {
		compacted, stats, err := core.CompactCtx(ctx, rules, core.CompactOptions{ModelTol: tol, Telemetry: reg})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "compacted to %d rules (%d translations, %d fusions, %d implied)\n",
			compacted.NumRules(), stats.Translations, stats.Fusions, stats.Implied)
		rules = compacted
	}
	if rc.mergeWindows > 0 {
		rules = core.MergeWindows(rules, rc.mergeWindows)
		fmt.Fprintf(w, "window merging (tol %g): %d rules remain\n", rc.mergeWindows, rules.NumRules())
	}
	stopCompact()

	stopEval := reg.Time(telemetry.PhaseEvaluate)
	rules.SetTelemetry(reg)
	fmt.Fprintln(w, core.Summarize(rules))
	if rc.store {
		// Coverage/RMSE evaluation walks tuples; a store-backed run has none.
		fmt.Fprintln(w)
	} else {
		fmt.Fprintf(w, "coverage %.3f, training RMSE %.6g\n\n", rules.Coverage(rel), rules.RMSE(rel))
	}
	for i := range rules.Rules {
		fmt.Fprintf(w, "φ%d: %s\n", i+1, rules.Rules[i].Format(schema))
	}
	if rc.save != "" {
		out, err := os.Create(rc.save)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := core.WriteRuleSet(out, rules); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nsaved %d rules to %s\n", rules.NumRules(), rc.save)
	}
	stopEval()

	fmt.Fprintln(w)
	snap := reg.Snapshot()
	for _, line := range eval.TelemetrySummary(snap) {
		fmt.Fprintln(w, line)
	}
	if rc.metrics != "" {
		if err := cliutil.WriteMetrics(w, rc.metrics, snap); err != nil {
			return err
		}
	}
	return nil
}
