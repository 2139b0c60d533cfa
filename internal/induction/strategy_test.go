package induction_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/induction"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// specs are the five crrgen evaluation datasets every strategy is checked
// against.
func specs() []experiments.DatasetSpec {
	return []experiments.DatasetSpec{
		experiments.BirdMapSpec(),
		experiments.AirQualitySpec(),
		experiments.ElectricitySpec(),
		experiments.TaxSpec(),
		experiments.AbaloneSpec(),
	}
}

func specConfig(spec experiments.DatasetSpec, rel *dataset.Relation) core.DiscoverConfig {
	preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
		Kind: predicate.Binary, Size: 32,
	})
	return core.DiscoverConfig{
		XAttrs:  spec.XAttrs,
		YAttr:   spec.YAttr,
		RhoM:    spec.RhoM,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}
}

// ruleSelection re-derives a rule's fit-usable selection independently of the
// engine: a plain tuple-at-a-time first-match scan (the re-derivation
// pattern of the stream oracle), deliberately NOT the vectorized filters the
// strategies ran on, so selection bugs in either path diverge. Pairs come
// back shifted exactly as training saw them.
func ruleSelection(rel *dataset.Relation, rule *core.CRR) (rows []int, xs [][]float64, ys []float64) {
rows:
	for ti, tp := range rel.Tuples {
		conj, ok := rule.Cond.MatchConjunction(tp)
		if !ok || tp[rule.YAttr].Null {
			continue
		}
		x := make([]float64, len(rule.XAttrs))
		for i, attr := range rule.XAttrs {
			if tp[attr].Null {
				continue rows
			}
			x[i] = tp[attr].Num + conj.Builtin.Shift(attr)
		}
		rows = append(rows, ti)
		xs = append(xs, x)
		ys = append(ys, tp[rule.YAttr].Num-conj.Builtin.YShift)
	}
	return rows, xs, ys
}

// TestStrategyProperty is the cross-strategy re-validation property: on all
// five evaluation datasets, every rule any strategy emits must (1) select a
// non-trivial part, (2) satisfy its published ρ on an independently derived
// selection, and (3) for the strategies that fit their model directly on
// their selection, be reproducible by an independent from-scratch refit.
func TestStrategyProperty(t *testing.T) {
	const n = 400
	for _, spec := range specs() {
		rel := spec.Gen(n)
		trainable := trainableRows(rel, spec.XAttrs, spec.YAttr)
		minSupport := len(spec.XAttrs) + 2
		for _, name := range induction.Names() {
			strat, err := induction.Lookup(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cfg := specConfig(spec, rel)
			cfg.Strategy = strat
			res, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, name, err)
			}
			if res.Rules.NumRules() == 0 {
				t.Fatalf("%s/%s: empty rule set", spec.Name, name)
			}
			for ri := range res.Rules.Rules {
				rule := &res.Rules.Rules[ri]
				rows, xs, ys := ruleSelection(rel, rule)

				// Support: growprune refuses selections below the MinSupport
				// floor (or the whole trainable set when it is smaller); the
				// lattice guarantees non-empty parts.
				floor := 1
				if name != "lattice" {
					floor = minSupport
					if len(trainable) < floor {
						floor = len(trainable)
					}
				}
				if len(rows) < floor {
					t.Errorf("%s/%s rule %d (%s): support %d < floor %d",
						spec.Name, name, ri, rule.Cond.String(), len(rows), floor)
					continue
				}

				// ρ re-validation: the published ρ is the model's actual
				// maximum residual over the rule's own selection.
				scale := 1.0
				for _, y := range ys {
					if a := math.Abs(y); a > scale {
						scale = a
					}
				}
				var rho float64
				for i, x := range xs {
					if d := math.Abs(ys[i] - rule.Model.Predict(x)); d > rho {
						rho = d
					}
				}
				tol := 1e-9 * scale
				if rho > rule.Rho+tol {
					t.Errorf("%s/%s rule %d: residual %g beyond published ρ %g (+%g)",
						spec.Name, name, ri, rho, rule.Rho, tol)
				}
				if name == "growprune" && math.Abs(rho-rule.Rho) > tol {
					t.Errorf("%s/%s rule %d: published ρ %g vs recomputed %g",
						spec.Name, name, ri, rule.Rho, rho)
				}

				// Coefficient refit: growprune fits each model on exactly its
				// selection, so an independent from-scratch refit on the
				// re-derived selection must agree to within float tolerance.
				if name == "growprune" {
					checkRefitParity(t, spec.Name, name, ri, rule, xs, ys, tol)
				}
			}
		}
	}
}

// checkRefitParity refits the configured family from scratch on the given
// pairs and requires the rule's model to predict identically within tol.
func checkRefitParity(t *testing.T, ds, strat string, ri int, rule *core.CRR, xs [][]float64, ys []float64, tol float64) {
	t.Helper()
	g := regress.NewGram(len(rule.XAttrs))
	for i, x := range xs {
		g.Add(x, ys[i])
	}
	refit, err := regress.LinearTrainer{}.TrainGram(g)
	if err != nil {
		return // degenerate selection: the strategy fell back to the full pass
	}
	var drift float64
	for _, x := range xs {
		if d := math.Abs(rule.Model.Predict(x) - refit.Predict(x)); d > drift {
			drift = d
		}
	}
	if drift > tol {
		t.Errorf("%s/%s rule %d: model drifts %g from the from-scratch refit (bound %g)",
			ds, strat, ri, drift, tol)
	}
}

func trainableRows(rel *dataset.Relation, xattrs []int, yattr int) []int {
	var out []int
rows:
	for i, tp := range rel.Tuples {
		if tp[yattr].Null {
			continue
		}
		for _, a := range xattrs {
			if tp[a].Null {
				continue rows
			}
		}
		out = append(out, i)
	}
	return out
}

// TestGrowPruneCoverage: like the lattice walk, growprune must cover every
// trainable row (each seed ends up inside its own rule's selection).
func TestGrowPruneCoverage(t *testing.T) {
	for _, spec := range specs() {
		rel := spec.Gen(300)
		cfg := specConfig(spec, rel)
		cfg.Strategy = induction.GrowPrune{}
		res, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		covered := make(map[int]bool)
		for ri := range res.Rules.Rules {
			rows, _, _ := ruleSelection(rel, &res.Rules.Rules[ri])
			for _, r := range rows {
				covered[r] = true
			}
		}
		for _, r := range trainableRows(rel, spec.XAttrs, spec.YAttr) {
			if !covered[r] {
				t.Fatalf("%s: trainable row %d not covered by any growprune rule", spec.Name, r)
			}
		}
	}
}

// TestStrategyDeterminism: with Workers ≤ 1 and a fixed Seed, every strategy
// must reproduce its output exactly.
func TestStrategyDeterminism(t *testing.T) {
	spec := experiments.TaxSpec()
	rel := spec.Gen(300)
	for _, name := range induction.Names() {
		strat, _ := induction.Lookup(name)
		run := func() *core.RuleSet {
			cfg := specConfig(spec, rel)
			cfg.Strategy = strat
			cfg.Seed = 7
			res, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res.Rules
		}
		a, b := run(), run()
		if !experiments.SameRules(a, b, 0) {
			t.Fatalf("%s: two identically-seeded runs diverged", name)
		}
	}
}

// TestLookup covers the registry surface.
func TestLookup(t *testing.T) {
	want := []string{"growprune", "lattice"}
	got := induction.Names()
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, n := range want {
		s, err := induction.Lookup(n)
		if err != nil || s.Name() != n {
			t.Fatalf("Lookup(%q) = %v, %v", n, s, err)
		}
	}
	if _, err := induction.Lookup("nope"); err == nil {
		t.Fatal("Lookup(nope) did not fail")
	}
}
