// Bird migration: the paper's motivating scenario (Example 1–2). Discover
// CRRs on the synthetic BirdMap stand-in and observe the two phenomena CRRs
// exist for: constant-latitude breeding plateaus (the "Latitude = 60.10"
// rule) and migration ramps recurring every year, captured by model sharing
// and merged into DNF conditions with y = δ builtins by compaction.
//
//	go run ./examples/birdmigration
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

func main() {
	cfg := dataset.DefaultBirdMapConfig()
	cfg.Rows = 4000
	rel := dataset.GenerateBirdMap(cfg)
	schema := rel.Schema
	dateAttr := schema.MustIndex("Date")
	latAttr := schema.MustIndex("Latitude")
	birdAttr := schema.MustIndex("BirdID")

	fmt.Printf("BirdMap stand-in: %d GPS fixes, %d birds, %d years\n\n",
		rel.Len(), cfg.Birds, cfg.Years)

	// Conditions range over the observation date and the bird identity.
	preds := predicate.Generate(rel, []int{dateAttr, birdAttr}, predicate.GeneratorConfig{})

	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs:  []int{dateAttr},
		YAttr:   latAttr,
		RhoM:    1.0,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 1: %d rules, %d via model sharing, %d models trained\n",
		res.Rules.NumRules(), res.Stats.ShareHits, res.Stats.ModelsTrained)

	rules, stats, err := core.CompactCtx(context.Background(), res.Rules, core.CompactOptions{ModelTol: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 2: %d rules after %d translations and %d fusions\n\n",
		rules.NumRules(), stats.Translations, stats.Fusions)

	// Classify the compacted rules the way Example 2 does.
	for i := range rules.Rules {
		r := &rules.Rules[i]
		kind := "migration ramp"
		if lin, ok := r.Model.(*regress.Linear); ok && lin.IsConstant(0.01) {
			kind = "breeding/wintering plateau (constant latitude)"
		}
		shifts := 0
		for _, c := range r.Cond.Conjs {
			if !c.Builtin.IsZero() {
				shifts++
			}
		}
		fmt.Printf("φ%d [%s] ρ=%.3f, %d condition windows (%d with y=δ translation)\n",
			i+1, kind, r.Rho, len(r.Cond.Conjs), shifts)
	}

	fmt.Printf("\ncoverage %.3f, RMSE %.4f — one rule now serves every year it recurs in\n",
		rules.Coverage(rel), rules.RMSE(rel))

	// Impute a missing location the way t6 in Table I needs.
	day := 2*dataset.YearLength + 200 // breeding season of year 3
	probe := dataset.Tuple{dataset.Null(), dataset.Null(), dataset.Str("2.Maria"), dataset.Num(day)}
	if lat, ok := rules.Predict(probe); ok {
		fmt.Printf("imputed Latitude for 2.Maria on day %.0f: %.3f\n", day, lat)
	}
}
