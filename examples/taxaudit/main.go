// Tax audit: the paper's relational scenario (§IV's f4/f5 example). Discover
// state-conditional tax formulas, watch Translation unify states whose
// formulas differ only by a constant (f5(Salary) = f4(Salary) − 230), and
// use the rules as integrity constraints to flag suspicious records.
//
//	go run ./examples/taxaudit
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
	cfg := dataset.DefaultTaxConfig()
	cfg.Rows = 6000
	rel := dataset.GenerateTax(cfg)
	schema := rel.Schema
	salary := schema.MustIndex("Salary")
	state := schema.MustIndex("State")
	status := schema.MustIndex("MaritalStatus")
	tax := schema.MustIndex("Tax")

	preds := predicate.Generate(rel, []int{state, status}, predicate.GeneratorConfig{})
	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs:  []int{salary},
		YAttr:   tax,
		RhoM:    60,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 1: %d per-state rules\n", res.Rules.NumRules())

	// Model sharing in Algorithm 1 may already have reused one state's model
	// for another (with a y = δ builtin); compaction then only needs Fusion.
	// Translation fires for formulas that were trained independently.
	rules, stats, err := core.CompactCtx(context.Background(), res.Rules, core.CompactOptions{ModelTol: 0.002})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 2: %d rules (%d translations, %d fusions)\n\n",
		rules.NumRules(), stats.Translations, stats.Fusions)

	for i := range rules.Rules {
		r := &rules.Rules[i]
		lin := r.Model.(*regress.Linear)
		fmt.Printf("φ%d: rate %.4f, ρ=%.1f, covers %d state/status groups\n",
			i+1, lin.W[1], r.Rho, len(r.Cond.Conjs))
	}

	// CRRs as integrity constraints: every clean record satisfies every rule;
	// a doctored record violates the rule that covers it.
	clean := 0
	for _, t := range rel.Tuples {
		ok := true
		for i := range rules.Rules {
			if !rules.Rules[i].Sat(t) {
				ok = false
				break
			}
		}
		if ok {
			clean++
		}
	}
	fmt.Printf("\n%d/%d records satisfy all rules\n", clean, rel.Len())

	rng := rand.New(rand.NewSource(42))
	doctored := rel.Tuples[rng.Intn(rel.Len())].Clone()
	doctored[tax] = dataset.Num(doctored[tax].Num - 2000) // under-reported tax
	violated := 0
	for i := range rules.Rules {
		if !rules.Rules[i].Sat(doctored) {
			violated++
		}
	}
	fmt.Printf("doctored record (tax −2000 in %s): violates %d rule(s) → flagged for audit\n",
		doctored[state].Str, violated)
}
