// Quickstart: discover conditional regression rules on a tiny two-regime
// dataset, inspect them, and use them to predict.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

func main() {
	// A mixed data distribution: y = 2x+1 below x=50, y = 2x+31 above x=100
	// (the same slope, shifted — a sharing opportunity), and y = −3x+500 in
	// between. Noise is bounded, as CRR's max-bias semantics require.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "X", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
	)
	rel := dataset.NewRelation(schema)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 900; i++ {
		x := 150 * float64(i) / 900
		var y float64
		switch {
		case x < 50:
			y = 2*x + 1
		case x < 100:
			y = -3*x + 500
		default:
			y = 2*x + 31
		}
		rel.MustAppend(dataset.Tuple{
			dataset.Num(x),
			dataset.Num(y + 0.2*(2*rng.Float64()-1)),
		})
	}

	// The predicate space ℙ: a {>, ≤} pair at every distinct X value (the
	// paper's default).
	preds := predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{})

	// Algorithm 1: CRR searching with model sharing.
	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs:  []int{0},
		YAttr:   1,
		RhoM:    0.5,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 1 found %d rules; %d parts reused an existing model\n",
		res.Rules.NumRules(), res.Stats.ShareHits)

	// Algorithm 2: compaction via Translation + Generalization + Fusion.
	rules, stats, err := core.CompactCtx(context.Background(), res.Rules, core.CompactOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 2 compacted to %d rules (%d translations, %d fusions)\n",
		rules.NumRules(), stats.Translations, stats.Fusions)

	// Touching windows whose y = δ shifts agree within ρ_M/10 collapse into
	// one window each (ρ widens by the δ spread — sound by Generalization).
	rules = core.MergeWindows(rules, 0.05)
	fmt.Printf("window merging left %s\n\n", core.Summarize(rules))

	for i := range rules.Rules {
		fmt.Printf("φ%d: %s\n", i+1, rules.Rules[i].Format(schema))
	}

	// Predict with the rule set.
	fmt.Println()
	for _, x := range []float64{10, 75, 120} {
		pred, covered := rules.Predict(dataset.Tuple{dataset.Num(x), dataset.Null()})
		fmt.Printf("x = %5.1f → ŷ = %7.2f (covered: %v)\n", x, pred, covered)
	}
	fmt.Printf("\ntraining coverage %.3f, RMSE %.4f\n", rules.Coverage(rel), rules.RMSE(rel))
}
