package core

import (
	"context"
	"math"
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

// pruneWithin discovers rel at ρ_M rhoM and prunes the result at the same
// bound.
func pruneWithin(t *testing.T, rel *dataset.Relation, rhoM float64) (in, out *RuleSet, st PruneStats) {
	t.Helper()
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, rhoM)))
	if err != nil {
		t.Fatal(err)
	}
	out, st, err = Prune(dataset.NewColumnSet(rel), res.Rules, PruneOptions{RhoM: rhoM})
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	return res.Rules, out, st
}

// unchangedRules indexes in's rules by condition, to tell the rules Prune
// passed through from the ones it created.
func unchangedRules(in *RuleSet) func(r *CRR) bool {
	byCond := make(map[string]*CRR, len(in.Rules))
	for i := range in.Rules {
		byCond[in.Rules[i].Cond.String()] = &in.Rules[i]
	}
	return func(r *CRR) bool {
		u, ok := byCond[r.Cond.String()]
		return ok && u.Model == r.Model && math.Float64bits(u.Rho) == math.Float64bits(r.Rho)
	}
}

// requirePruneBound checks Prune's contract on every rule it created (every
// rule of out that is not an unchanged rule of in): ρ is at most rhoM and
// is, bit for bit, the maximum |y − f(x)| recomputed tuple by tuple over
// the rows its condition selects. It returns the number of created rules.
func requirePruneBound(t *testing.T, rel *dataset.Relation, in, out *RuleSet, rhoM float64) int {
	t.Helper()
	unchanged := unchangedRules(in)
	created := 0
	for i := range out.Rules {
		r := &out.Rules[i]
		if unchanged(r) {
			continue
		}
		created++
		if !(r.Rho <= rhoM) {
			t.Errorf("merged rule %s: ρ %v above ρM %v", r.Cond, r.Rho, rhoM)
		}
		var want float64
		x := make([]float64, len(r.XAttrs))
		for _, tp := range rel.Tuples {
			if !r.Cond.Sat(tp) {
				continue
			}
			for j, a := range r.XAttrs {
				x[j] = tp[a].Num
			}
			if d := math.Abs(tp[r.YAttr].Num - r.Model.Predict(x)); d > want {
				want = d
			}
		}
		if math.Float64bits(want) != math.Float64bits(r.Rho) {
			t.Errorf("merged rule %s: ρ %v, recomputed max error %v", r.Cond, r.Rho, want)
		}
	}
	return created
}

// TestPruneMergesOverRefinedWindows: three regimes discovered at ρ_M 0.25
// come out as nine windows; Prune merges the over-refined ones back while
// every merged rule keeps the bound.
func TestPruneMergesOverRefinedWindows(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rel := piecewiseRelation(600, 0.2, seed)
		in, pruned, st := pruneWithin(t, rel, 0.25)
		if st.Merged == 0 {
			t.Fatalf("seed %d: no merges among %d windows", seed, in.NumRules())
		}
		if pruned.NumRules() >= in.NumRules() {
			t.Errorf("seed %d: pruning did not reduce rules: %d → %d", seed, in.NumRules(), pruned.NumRules())
		}
		if got := requirePruneBound(t, rel, in, pruned, 0.25); got == 0 {
			t.Errorf("seed %d: %d merges created no rule", seed, st.Merged)
		}
		if cov := pruned.Coverage(rel); cov != 1 {
			t.Errorf("seed %d: pruned coverage = %v", seed, cov)
		}
		if !pruned.Holds(rel) {
			t.Errorf("seed %d: pruned rules violated", seed)
		}
	}

	// ρ_M below the 0.3 noise: every window is forced, and no merge may
	// publish a rule above the bound.
	rel := overRefinedRelation(800, 0.3, 1)
	in, pruned, _ := pruneWithin(t, rel, 0.1)
	requirePruneBound(t, rel, in, pruned, 0.1)
}

// TestPruneMergesSharedBuiltinWindows: discovery with sharing emits windows
// carrying y=δ0 builtins; Prune refits them from data, so each is absorbed
// into a builtin-free merged window, while the forced rules (published above
// ρ_M) pass through unchanged.
func TestPruneMergesSharedBuiltinWindows(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rel := piecewiseRelation(600, 0.2, seed)
		in, pruned, _ := pruneWithin(t, rel, 0.25)
		withBuiltin, forced := 0, 0
		for _, r := range in.Rules {
			if !r.Cond.Conjs[0].Builtin.IsZero() {
				withBuiltin++
			}
			if r.Rho > 0.25 {
				forced++
			}
		}
		if withBuiltin == 0 || forced == 0 {
			t.Fatalf("seed %d: fixture has %d shared and %d forced windows, want both", seed, withBuiltin, forced)
		}
		unchanged := unchangedRules(in)
		for i := range pruned.Rules {
			r := &pruned.Rules[i]
			if !r.Cond.Conjs[0].Builtin.IsZero() {
				t.Errorf("seed %d: shared window %s was not absorbed", seed, r.Cond)
			}
			if r.Rho > 0.25 {
				forced--
				if !unchanged(r) {
					t.Errorf("seed %d: forced rule %s changed", seed, r.Cond)
				}
			}
		}
		if forced != 0 {
			t.Errorf("seed %d: %d forced rules lost", seed, forced)
		}
		if !pruned.Holds(rel) {
			t.Errorf("seed %d: pruned rules violated", seed)
		}
	}
}

// TestPruneDefaultsLikeDiscovery: a zero PruneOptions takes discovery's
// defaults — OLS and ρ_M = DefaultMaxBias — instead of failing on the nil
// trainer.
func TestPruneDefaultsLikeDiscovery(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.25)))
	if err != nil {
		t.Fatal(err)
	}
	pruned, st, err := Prune(dataset.NewColumnSet(rel), res.Rules, PruneOptions{})
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if st.Merged == 0 {
		t.Error("no merges at the default bound")
	}
	requirePruneBound(t, rel, res.Rules, pruned, DefaultMaxBias)
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
	_, pruned, _ := pruneWithin(t, rel, 0.3)
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
	pruned, _, err := Prune(dataset.NewColumnSet(rel), res.Rules, PruneOptions{RhoM: 0.02})
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
	requirePruneBound(t, rel, res.Rules, pruned, 0.02)
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
	pruned, st, err := Prune(dataset.NewColumnSet(rel), rs, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumRules() != 2 || st.Tested != 0 {
		t.Errorf("non-mergeable rules were touched: %d rules, %+v", pruned.NumRules(), st)
	}
}

func TestPruneEmptyRuleSet(t *testing.T) {
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1}
	cols := dataset.NewColumnSet(dataset.NewRelation(lineSchema()))
	pruned, st, err := Prune(cols, rs, PruneOptions{})
	if err != nil || pruned.NumRules() != 0 || st.Merged != 0 {
		t.Errorf("empty prune: %v %v %v", pruned.NumRules(), st, err)
	}
}
