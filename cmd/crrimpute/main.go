// Command crrimpute fills missing values in a CSV column using discovered
// conditional regression rules — the downstream case study of the paper's
// §VI-E.
//
// Usage:
//
//	crrimpute -input gaps.csv -output filled.csv -y Latitude -x Date -rho 1.0
//
// Missing cells are empty CSV fields. Rules are discovered on the complete
// rows, compacted, and applied to the incomplete ones.
//
// With -remote the rules live on a crrserve instance and the fill runs over
// HTTP through the Go SDK (binary columnar protocol, JSON fallback):
//
//	crrimpute -input gaps.csv -output filled.csv -remote http://localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/impute"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/pkg/client"
)

func main() {
	var (
		input    = flag.String("input", "", "input CSV path (required)")
		output   = flag.String("output", "", "output CSV path (default: stdout)")
		yName    = flag.String("y", "", "column to impute (required unless -remote)")
		xNames   = flag.String("x", "", "comma-separated regression attributes (required unless -rules/-remote)")
		rhoM     = flag.Float64("rho", 1.0, "maximum bias ρ_M")
		fallback = flag.Bool("fallback", false, "fill uncovered cells with the training mean")
		rulesIn  = flag.String("rules", "", "load a saved rule set (crrdiscover -save) instead of discovering")
		remote   = flag.String("remote", "", "impute through a crrserve URL instead of local rules")
		workers  = flag.Int("workers", 1, "discovery worker count (0 = 1, <0 = one per CPU); only 1 is deterministic")
		seed     = flag.Int64("seed", 0, "random seed (predicate generation)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	if *remote != "" {
		err = runRemote(ctx, *input, *output, *yName, *remote, *fallback)
	} else {
		err = run(ctx, *input, *output, *yName, *xNames, *rhoM, *fallback, *rulesIn, *workers, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crrimpute:", err)
		os.Exit(1)
	}
}

// runRemote fills the column through a served rule set. The target column
// defaults to the server's regression target when -y is not given.
func runRemote(ctx context.Context, input, output, yName, remote string, fallback bool) error {
	if input == "" {
		return fmt.Errorf("-input is required (see -h)")
	}
	f, err := os.Open(input)
	if err != nil {
		return err
	}
	rel, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	batch, err := cliutil.ClientBatch(rel)
	if err != nil {
		return err
	}
	var opts []client.ImputeOption
	if yName != "" {
		opts = append(opts, client.WithColumn(yName))
	}
	if fallback {
		opts = append(opts, client.WithFallback())
	}
	c := client.New(remote)
	rep, err := c.Impute(ctx, batch, opts...)
	if err != nil {
		return err
	}
	filled, err := cliutil.RelationFromMaps(rel.Schema, rep.Tuples)
	if err != nil {
		return fmt.Errorf("rebuild imputed tuples: %w", err)
	}
	fmt.Fprintf(os.Stderr, "imputed %d cells (%d uncovered) in column %s via %s\n",
		rep.Imputed, rep.Failed, rep.Column, remote)
	out := os.Stdout
	if output != "" {
		out, err = os.Create(output)
		if err != nil {
			return err
		}
		defer out.Close()
	}
	return dataset.WriteCSV(out, filled)
}

func run(ctx context.Context, input, output, yName, xNames string, rhoM float64, fallback bool, rulesIn string, workers int, seed int64) error {
	if input == "" || yName == "" || xNames == "" {
		return fmt.Errorf("-input, -y and -x are required (see -h)")
	}
	f, err := os.Open(input)
	if err != nil {
		return err
	}
	rel, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	yattr, err := rel.Schema.Index(yName)
	if err != nil {
		return err
	}
	var xattrs, cond []int
	for _, name := range strings.Split(xNames, ",") {
		i, err := rel.Schema.Index(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		xattrs = append(xattrs, i)
		cond = append(cond, i)
	}
	for i := 0; i < rel.Schema.Len(); i++ {
		if i != yattr && rel.Schema.Attr(i).Kind == dataset.Categorical {
			cond = append(cond, i)
		}
	}

	var rules *core.RuleSet
	if rulesIn != "" {
		rf, err := os.Open(rulesIn)
		if err != nil {
			return err
		}
		rules, err = core.ReadRuleSet(rf)
		rf.Close()
		if err != nil {
			return err
		}
	} else {
		preds := predicate.Generate(rel, cond, predicate.GeneratorConfig{Seed: seed})
		res, err := core.Discover(ctx, rel, core.WithConfig(core.DiscoverConfig{
			XAttrs:  xattrs,
			YAttr:   yattr,
			RhoM:    rhoM,
			Preds:   preds,
			Trainer: regress.LinearTrainer{},
			Seed:    seed,
			Workers: workers,
		}))
		if err != nil {
			return err
		}
		var cerr error
		rules, _, cerr = core.CompactCtx(ctx, res.Rules, core.CompactOptions{})
		if cerr != nil {
			return cerr
		}
	}

	stats, err := impute.Fill(rel, yattr, impute.RuleSetPredictor{Rules: rules, UseFallback: fallback})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "imputed %d cells (%d uncovered) with %d rules in %s\n",
		stats.Imputed, stats.Failed, rules.NumRules(), stats.Duration)

	out := os.Stdout
	if output != "" {
		out, err = os.Create(output)
		if err != nil {
			return err
		}
		defer out.Close()
	}
	return dataset.WriteCSV(out, rel)
}
