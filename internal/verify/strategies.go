package verify

// Induction-strategy oracles: every strategy behind the core.Strategy seam
// (the lattice walk, growprune) must produce rules that satisfy the
// Problem 1 per-rule contract on data it was given, degrade gracefully on
// data it was not, and survive the codec. The strategies are run on the
// even rows of the target (an interleaved split — a tail holdout would
// measure temporal extrapolation on the time-series generators, not rule
// quality), and each rule's selection is re-derived with the plain
// tuple-at-a-time scan of the stream oracle, deliberately NOT the vectorized
// filters the strategies ran on.

import (
	"context"
	"fmt"
	"math"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/induction"
)

// holdoutMinRows is the smallest held-out selection the tolerance check
// judges; below it the violation fraction is too noisy to mean anything.
const holdoutMinRows = 16

// holdoutMaxViolFrac bounds the fraction of held-out residuals allowed
// beyond ρ + ρ_M. The generators are noisy and held-out rows were never
// seen, so exact bounds don't apply — but a rule for which more than a
// quarter of unseen selected rows falls outside even the widened band does
// not describe a real regime.
const holdoutMaxViolFrac = 0.25

// strategyOracles runs every registered induction strategy on the target's
// even-row half and checks: non-empty output, the MinSupport floor, the ρ
// bound on each rule's own (independently re-derived) selection, held-out
// tolerance on the odd-row half, coverage for the strategies that promise
// it, and the codec round trip.
func (rn *runner) strategyOracles(ctx context.Context, t Target) error {
	train := dataset.NewRelation(t.Rel.Schema)
	hold := dataset.NewRelation(t.Rel.Schema)
	for i, tp := range t.Rel.Tuples {
		if i%2 == 0 {
			train.Tuples = append(train.Tuples, tp)
		} else {
			hold.Tuples = append(hold.Tuples, tp)
		}
	}
	trainable := trainableRows(train, t.XAttrs, t.YAttr)
	if len(trainable) == 0 {
		return nil
	}
	minSupport := len(t.XAttrs) + 2

	for _, name := range induction.Names() {
		strat, err := induction.Lookup(name)
		if err != nil {
			return err
		}
		cfg := baseConfig(t, train, rn.opts.PredSize)
		cfg.Strategy = strat
		res, err := core.Discover(ctx, train, core.WithConfig(cfg))
		if err != nil {
			return fmt.Errorf("strategy %s: %w", name, err)
		}
		rules := res.Rules

		rn.check("strategy/"+name+"/nonempty", func() string {
			if rules.NumRules() == 0 {
				return fmt.Sprintf("no rules on %d trainable rows", len(trainable))
			}
			return ""
		}())

		// Per-rule support and ρ bound on the rule's own selection.
		floor := 1
		if name != "lattice" {
			floor = minSupport
			if len(trainable) < floor {
				floor = len(trainable)
			}
		}
		supportDetail, rhoDetail := "", ""
		for ri := range rules.Rules {
			rule := &rules.Rules[ri]
			xs, ys := coveredPairs(train, rule)
			if len(ys) < floor && supportDetail == "" {
				supportDetail = fmt.Sprintf("rule %d (%s): support %d < floor %d",
					ri, rule.Cond.String(), len(ys), floor)
			}
			scale := 1.0
			var rho float64
			for i, x := range xs {
				if a := math.Abs(ys[i]); a > scale {
					scale = a
				}
				if d := math.Abs(ys[i] - rule.Model.Predict(x)); d > rho {
					rho = d
				}
			}
			if rho > rule.Rho+1e-9*scale && rhoDetail == "" {
				rhoDetail = fmt.Sprintf("rule %d: max residual %g beyond published ρ %g on its own %d-row selection",
					ri, rho, rule.Rho, len(ys))
			}
		}
		rn.check("strategy/"+name+"/support", supportDetail)
		rn.check("strategy/"+name+"/rho-own-selection", rhoDetail)

		// Held-out tolerance: on the odd-row half, rules selecting enough
		// rows must keep most residuals within ρ + ρ_M.
		holdDetail := ""
		for ri := range rules.Rules {
			rule := &rules.Rules[ri]
			xs, ys := coveredPairs(hold, rule)
			if len(ys) < holdoutMinRows {
				continue
			}
			viol := 0
			for i, x := range xs {
				if math.Abs(ys[i]-rule.Model.Predict(x)) > rule.Rho+t.RhoM {
					viol++
				}
			}
			if frac := float64(viol) / float64(len(ys)); frac > holdoutMaxViolFrac && holdDetail == "" {
				holdDetail = fmt.Sprintf("rule %d (%s): %.0f%% of %d held-out rows beyond ρ+ρ_M",
					ri, rule.Cond.String(), frac*100, len(ys))
			}
		}
		rn.check("strategy/"+name+"/holdout", holdDetail)

		// Coverage: the lattice walk and growprune guarantee every trainable
		// row is selected by some rule.
		covDetail := ""
		coveredRows := make([]bool, train.Len())
		for ri := range rules.Rules {
			rule := &rules.Rules[ri]
			for ti, tp := range train.Tuples {
				if _, ok := rule.Cond.MatchConjunction(tp); ok {
					coveredRows[ti] = true
				}
			}
		}
		for _, r := range trainable {
			if !coveredRows[r] {
				covDetail = fmt.Sprintf("trainable row %d covered by no rule", r)
				break
			}
		}
		rn.check("strategy/"+name+"/coverage", covDetail)

		ct := t
		ct.Rel = train
		rn.codecOracle(ct, rules, "strategy-"+name)
	}
	return nil
}
