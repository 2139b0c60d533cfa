package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// overRefinedRelation builds one straight line y = 2x + 1 with bounded noise
// — a single true model that an over-small ρ_M fragments into many windows.
func overRefinedRelation(n int, noise float64, seed int64) *dataset.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := dataset.NewRelation(lineSchema())
	for i := 0; i < n; i++ {
		x := 100 * float64(i) / float64(n)
		rel.MustAppend(lineTuple(x, 2*x+1+noise*(2*rng.Float64()-1), "a"))
	}
	return rel
}

func TestPruneMergesOverRefinedWindows(t *testing.T) {
	rel := overRefinedRelation(800, 0.3, 1)
	cfg := discoverCfg(rel, 0.1) // ρ_M below the noise: heavy over-refinement
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.NumRules() < 4 {
		t.Skipf("expected over-refinement, got %d rules", res.Rules.NumRules())
	}
	pruned, st, err := Prune(rel, res.Rules, PruneOptions{})
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if st.Merged == 0 {
		t.Fatalf("no merges on a single-model dataset split into %d windows", res.Rules.NumRules())
	}
	if pruned.NumRules() >= res.Rules.NumRules() {
		t.Errorf("pruning did not reduce rules: %d → %d", res.Rules.NumRules(), pruned.NumRules())
	}
	if cov := pruned.Coverage(rel); cov != 1 {
		t.Errorf("pruned coverage = %v", cov)
	}
	// The merged model generalizes: training RMSE stays near the noise
	// level.
	if rmse := pruned.RMSE(rel); rmse > 0.3 {
		t.Errorf("pruned RMSE = %v", rmse)
	}
}

func TestPruneKeepsDistinctRegimes(t *testing.T) {
	// Two genuinely different slopes must NOT merge.
	rel := dataset.NewRelation(lineSchema())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 600; i++ {
		x := 100 * float64(i) / 600
		y := 2 * x
		if x >= 50 {
			y = -3*x + 250
		}
		rel.MustAppend(lineTuple(x, y+0.1*(2*rng.Float64()-1), "a"))
	}
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.3)))
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := Prune(rel, res.Rules, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumRules() < 2 {
		t.Errorf("pruning merged two distinct regimes into %d rule(s)", pruned.NumRules())
	}
	// No quality collapse.
	if rmse := pruned.RMSE(rel); rmse > 0.5 {
		t.Errorf("pruned RMSE = %v", rmse)
	}
}

func TestPruneRespectsContext(t *testing.T) {
	// Same windows under different categorical contexts must not merge
	// across contexts.
	rel := dataset.NewRelation(lineSchema())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		x := 100 * float64(i%300) / 300
		tag := "a"
		y := 2 * x
		if i >= 300 {
			tag = "b"
			y = 5 * x
		}
		rel.MustAppend(lineTuple(x, y+0.05*(2*rng.Float64()-1), "c"+tag))
	}
	preds := predicate.Generate(rel, []int{0, 2}, predicate.GeneratorConfig{})
	res, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{
		XAttrs: []int{0}, YAttr: 1, RhoM: 0.02, Preds: preds, Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := Prune(rel, res.Rules, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every pruned rule must still hold on the data it covers (with its own
	// recomputed ρ).
	if !pruned.Holds(rel) {
		t.Error("pruned rules violated on training data")
	}
	if rmse := pruned.RMSE(rel); rmse > 0.5 {
		t.Errorf("cross-context merge suspected: RMSE %v", rmse)
	}
}

func TestPruneLeavesNonWindowRulesAlone(t *testing.T) {
	// DNF-condition rules and lone windows pass through untouched.
	dnf := predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Lt, 0)),
		predicate.NewConjunction(predicate.NumPred(0, predicate.Gt, 10)),
	)
	lone := predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 0))
	lone.Builtin = lone.Builtin.WithYShift(5)
	rs := &RuleSet{
		Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1,
		Rules: []CRR{
			{Model: regress.NewLinear(0, 1), Rho: 1, Cond: dnf, XAttrs: []int{0}, YAttr: 1},
			{Model: regress.NewLinear(0, 1), Rho: 1, Cond: predicate.NewDNF(lone), XAttrs: []int{0}, YAttr: 1},
		},
	}
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(lineTuple(1, 6, "a"))
	pruned, st, err := Prune(rel, rs, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumRules() != 2 || st.Tested != 0 {
		t.Errorf("non-mergeable rules were touched: %d rules, %+v", pruned.NumRules(), st)
	}
}

func TestPruneMergesSharedBuiltinWindows(t *testing.T) {
	// Discovery with sharing emits windows carrying y=δ0 builtins; they must
	// still merge when one model explains adjacent windows.
	rel := overRefinedRelation(800, 0.3, 2)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.1)))
	if err != nil {
		t.Fatal(err)
	}
	withBuiltin := 0
	for _, r := range res.Rules.Rules {
		if !r.Cond.Conjs[0].Builtin.IsZero() {
			withBuiltin++
		}
	}
	if withBuiltin == 0 {
		t.Skip("no shared windows produced; nothing to verify")
	}
	pruned, st, err := Prune(rel, res.Rules, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Merged == 0 {
		t.Fatalf("no merges despite %d shared windows of one true model", withBuiltin)
	}
	if !pruned.Holds(rel) {
		t.Error("pruned rules violated")
	}
}

func TestPruneEmptyRuleSet(t *testing.T) {
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1}
	rel := dataset.NewRelation(lineSchema())
	pruned, st, err := Prune(rel, rs, PruneOptions{})
	if err != nil || pruned.NumRules() != 0 || st.Merged != 0 {
		t.Errorf("empty prune: %v %v %v", pruned.NumRules(), st, err)
	}
}
