// Package induction contributes a rule-induction strategy beyond the
// paper's Algorithm 1 lattice walk, plugged into the discovery engine
// through the core.Strategy seam. It runs on the shared substrate — the
// columnar part scan, SSE split scoring, Gram-backed training and
// ρ-validation kernels of internal/core — so the hot path is never forked,
// and its output satisfies the lattice's contract: rules whose model is
// within the published ρ on the rows their condition selects.
//
// GrowPrune is per-example greedy rule induction in the style of the Rule
// Induction Partitioning Estimator (Margot et al.): seed a candidate at each
// uncovered example, grow its conjunction along the SSE-best splits while
// the refit bound is violated, then prune predicates that don't pay their
// coverage cost.
//
// Lookup resolves strategies by name for crrdiscover -strategy.
package induction

import (
	"context"
	"fmt"
	"sort"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// GrowPrune is per-example greedy rule induction: every trainable row not
// yet covered by an emitted rule seeds a candidate whose condition starts at
// ⊤ and is grown one SSE-best predicate at a time — always descending into
// the split child containing the seed — until the refit satisfies the ρ_M
// bound, the part reaches the MinSupport floor, the conjunction holds
// maxPreds predicates, or no split applies. A backward pass then prunes
// predicates whose removal keeps the (refit) bound satisfied, so rules don't
// carry conditions that never paid for themselves.
//
// Like the lattice walk, GrowPrune covers every trainable row (each seed
// ends up inside its own rule's selection), trains through the Gram fast
// path, and publishes ρ as the model's actual maximum residual on the rule's
// selection. Unlike the lattice walk it never shares models and its rules
// may overlap. Deterministic for a fixed configuration.
type GrowPrune struct{}

// maxPreds caps the grown conjunction length.
const maxPreds = 8

// Name implements core.Strategy.
func (GrowPrune) Name() string { return "growprune" }

// Induce implements core.Strategy.
func (GrowPrune) Induce(ctx context.Context, sub *core.Substrate) (*core.DiscoverResult, error) {
	cfg := sub.Config()
	out := sub.NewResult()
	all := sub.TrainableRows()
	if len(all) == 0 {
		return out, nil
	}
	grown := cfg.Telemetry.Counter(telemetry.MetricInductionCandidatesGrown)
	prunedC := cfg.Telemetry.Counter(telemetry.MetricInductionRulesPruned)

	covered := make([]bool, sub.NumRows())
	for _, seed := range all {
		if covered[seed] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, core.Canceled(err)
		}
		grown.Inc()

		// Grow: descend along the SSE-best split, keeping the seed's child,
		// until the refit bound holds or no useful refinement remains.
		var preds []predicate.Predicate
		sel := all
		var model regress.Model
		var maxErr float64
		for {
			m, err := sub.Fit(sel)
			if err != nil {
				if model == nil {
					return nil, fmt.Errorf("induction: growprune fit on %d rows: %w", len(sel), err)
				}
				break
			}
			model = m
			out.Stats.ModelsTrained++
			maxErr = sub.MaxAbsError(model, sel)
			if maxErr <= cfg.RhoM {
				break
			}
			if len(sel) <= cfg.MinSupport || len(preds) >= maxPreds {
				break
			}
			groups := sub.TopSplits(sel, 1)
			if len(groups) == 0 {
				break
			}
			var child *core.SplitChild
			for i := range groups[0] {
				if containsRow(groups[0][i].Rows, seed) {
					child = &groups[0][i]
					break
				}
			}
			// Stop when the seed's child makes no progress or would fall
			// below the support floor — emitted rules keep
			// support ≥ min(MinSupport, |trainable|).
			if child == nil || len(child.Rows) == len(sel) || len(child.Rows) < cfg.MinSupport {
				break
			}
			preds = append(preds, child.Pred)
			sel = child.Rows
			out.Stats.NodesExpanded++
		}

		// Prune: drop predicates whose removal keeps the refit bound — or,
		// for rules already beyond ρ_M (forced at the support floor), does
		// not worsen it. Each removal re-derives the selection from the full
		// trainable set, so pruned rules stay honest about what they cover.
		prunedAny := false
		for i := 0; i < len(preds); {
			cand := make([]predicate.Predicate, 0, len(preds)-1)
			cand = append(cand, preds[:i]...)
			cand = append(cand, preds[i+1:]...)
			sel2 := all
			for _, p := range cand {
				sel2 = sub.Filter(sel2, p)
			}
			m2, err := sub.Fit(sel2)
			if err != nil {
				i++
				continue
			}
			out.Stats.ModelsTrained++
			e2 := sub.MaxAbsError(m2, sel2)
			if e2 <= cfg.RhoM || (maxErr > cfg.RhoM && e2 <= maxErr) {
				preds, sel, model, maxErr = cand, sel2, m2, e2
				prunedAny = true
				continue // positions shifted; retry index i
			}
			i++
		}
		if prunedAny {
			prunedC.Inc()
		}

		conj := predicate.NewConjunction()
		for _, p := range preds {
			conj = conj.And(p)
		}
		if maxErr > cfg.RhoM {
			out.Stats.ForcedRules++
		}
		out.Rules.Rules = append(out.Rules.Rules, core.CRR{
			Model:  model,
			Rho:    maxErr,
			Cond:   predicate.NewDNF(conj.Normalize()),
			XAttrs: out.Rules.XAttrs,
			YAttr:  cfg.YAttr,
		})
		for _, r := range sel {
			covered[r] = true
		}
	}
	return out, nil
}

// containsRow reports whether the ascending row slice contains row.
func containsRow(rows []int, row int) bool {
	i := sort.SearchInts(rows, row)
	return i < len(rows) && rows[i] == row
}
