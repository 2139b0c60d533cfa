package verify

import (
	"context"
	"fmt"
	"math"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// The prune oracle: core.Prune keeps a merge of two adjacent windows only
// when the merged rule stays within Problem 1's bound. Two discovered sets
// are pruned at the target's ρ_M: the canonical one, and one over the
// paper-default space (a cut at every distinct value), whose finer windows
// do merge. Every rule Prune created — every output rule that is not an
// unchanged input rule — must have ρ ≤ ρ_M, with that ρ equal, bit for bit,
// to the maximum |y − f(x)| recomputed tuple by tuple over the trainable
// rows its condition selects. The trainable rows the set covers must not
// change.

// pruneOracle checks the bound on both sets and returns the dense-space
// one, which the store oracle prunes again over the store.
func (rn *runner) pruneOracle(ctx context.Context, t Target, rules *core.RuleSet) (*core.RuleSet, error) {
	cfg := baseConfig(t, t.Rel, rn.opts.PredSize)
	cfg.Preds = predicate.Generate(t.Rel, t.CondAttrs, predicate.GeneratorConfig{})
	res, err := core.Discover(ctx, t.Rel, core.WithConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("prune oracle: discover over the dense space: %w", err)
	}
	cols := dataset.NewColumnSet(t.Rel)
	for _, pass := range []struct {
		oracle string
		rules  *core.RuleSet
	}{{"prune/budget", rules}, {"prune/budget/dense", res.Rules}} {
		pruned, _, err := core.Prune(cols, pass.rules, core.PruneOptions{RhoM: t.RhoM})
		if err != nil {
			return nil, fmt.Errorf("prune oracle: %w", err)
		}
		rn.check(pass.oracle, pruneBudget(t, pass.rules, pruned))
	}
	return res.Rules, nil
}

// pruneBudget returns "" when out, the pruned in, keeps Prune's contract
// on t, and the first breach otherwise.
func pruneBudget(t Target, in, out *core.RuleSet) string {
	type ruleKey struct {
		cond string
		rho  uint64
	}
	unchanged := make(map[ruleKey]regress.Model, len(in.Rules))
	for i := range in.Rules {
		r := &in.Rules[i]
		unchanged[ruleKey{r.Cond.String(), math.Float64bits(r.Rho)}] = r.Model
	}
	trainable := trainableRows(t.Rel, t.XAttrs, t.YAttr)
	x := make([]float64, len(t.XAttrs))
	for i := range out.Rules {
		r := &out.Rules[i]
		if m, ok := unchanged[ruleKey{r.Cond.String(), math.Float64bits(r.Rho)}]; ok && m == r.Model {
			continue
		}
		if !(r.Rho <= t.RhoM) {
			return fmt.Sprintf("merged rule %d %s: ρ %v above ρM %v", i, r.Cond, r.Rho, t.RhoM)
		}
		var want float64
		for _, ri := range trainable {
			tp := t.Rel.Tuples[ri]
			if !r.Covers(tp) {
				continue
			}
			for j, a := range r.XAttrs {
				x[j] = tp[a].Num
			}
			if d := math.Abs(tp[r.YAttr].Num - r.Model.Predict(x)); d > want {
				want = d
			}
		}
		if !bitsEqual(want, r.Rho) {
			return fmt.Sprintf("merged rule %d %s: ρ %v, recomputed max error %v", i, r.Cond, r.Rho, want)
		}
	}
	covers := func(s *core.RuleSet, tp dataset.Tuple) bool {
		for i := range s.Rules {
			if s.Rules[i].Covers(tp) {
				return true
			}
		}
		return false
	}
	for _, ri := range trainable {
		tp := t.Rel.Tuples[ri]
		if before, after := covers(in, tp), covers(out, tp); before != after {
			return fmt.Sprintf("trainable row %d: covered %v before pruning, %v after", ri, before, after)
		}
	}
	return ""
}
