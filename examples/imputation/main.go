// Imputation: the paper's downstream case study (§VI-E, Fig. 10). Mask 10%
// of the AirQuality CO readings, discover CRRs on the remaining data, and
// compare imputation with the raw rule set against the compacted one: same
// accuracy, fewer rules, faster lookups.
//
//	go run ./examples/imputation
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/impute"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

func main() {
	cfg := dataset.DefaultAirQualityConfig()
	cfg.Rows = 3000
	original := dataset.GenerateAirQuality(cfg)
	timeAttr := original.Schema.MustIndex("Time")
	co := original.Schema.MustIndex("CO")

	masked := original.Clone()
	holes := masked.MaskMissing(co, 0.10, rand.New(rand.NewSource(7)))
	fmt.Printf("masked %d of %d CO readings\n\n", len(holes), original.Len())

	preds := predicate.Generate(masked, []int{timeAttr}, predicate.GeneratorConfig{})
	res, err := core.Discover(context.Background(), masked, core.WithConfig(core.DiscoverConfig{
		XAttrs:  []int{timeAttr},
		YAttr:   co,
		RhoM:    1.0,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		log.Fatal(err)
	}
	compacted, _, err := core.CompactCtx(context.Background(), res.Rules, core.CompactOptions{ModelTol: 0.05})
	if err != nil {
		log.Fatal(err)
	}

	for _, variant := range []struct {
		name  string
		rules *core.RuleSet
	}{
		{"raw rules     ", res.Rules},
		{"compacted     ", compacted},
	} {
		rmse, st, err := impute.Evaluate(masked, original, co, holes,
			impute.RuleSetPredictor{Rules: variant.rules, UseFallback: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %4d rules   imputation RMSE %.4f   time %s\n",
			variant.name, variant.rules.NumRules(), rmse, st.Duration)
	}

	// Fill the holes in place for downstream use.
	st, err := impute.Fill(masked, co, impute.RuleSetPredictor{Rules: compacted, UseFallback: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfilled %d cells (%d uncovered)\n", st.Imputed, st.Failed)
}
