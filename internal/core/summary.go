package core

import (
	"fmt"

	"github.com/crrlab/crr/internal/dataset"
)

// Summary aggregates a rule set's shape: how many rules, how many distinct
// models behind them (the quantity model sharing minimizes), how the DNF
// conditions are built, and the bias spread.
type Summary struct {
	Rules        int
	Models       int
	Conjunctions int
	// Translated counts conjunctions carrying non-zero builtins (windows
	// served by a shifted model).
	Translated int
	// PredsPerConj is the mean predicate count per conjunction.
	PredsPerConj float64
	MinRho       float64
	MaxRho       float64
}

// Summarize computes the Summary of s. An empty set returns zeros.
func Summarize(s *RuleSet) Summary {
	out := Summary{Rules: s.NumRules(), Models: s.NumModels()}
	preds := 0
	for i := range s.Rules {
		r := &s.Rules[i]
		if i == 0 || r.Rho < out.MinRho {
			out.MinRho = r.Rho
		}
		if r.Rho > out.MaxRho {
			out.MaxRho = r.Rho
		}
		for _, c := range r.Cond.Conjs {
			out.Conjunctions++
			preds += len(c.Preds)
			if !c.Builtin.IsZero() {
				out.Translated++
			}
		}
	}
	if out.Conjunctions > 0 {
		out.PredsPerConj = float64(preds) / float64(out.Conjunctions)
	}
	return out
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("%d rules over %d models; %d condition windows (%d translated), %.1f predicates/window, ρ ∈ [%.4g, %.4g]",
		s.Rules, s.Models, s.Conjunctions, s.Translated, s.PredsPerConj, s.MinRho, s.MaxRho)
}

// Diff measures prediction agreement between two rule sets on a relation:
// the fraction of tuples where both cover and agree within tol, plus the
// disagreement breakdown. It is the regression-test primitive for rule-set
// transformations (compaction, pruning, maintenance, persistence).
type Diff struct {
	Tuples int
	// Agree counts tuples where coverage matches and, if covered, the
	// predictions differ by at most the tolerance.
	Agree int
	// CoverageMismatch counts tuples covered by exactly one set.
	CoverageMismatch int
	// PredictionMismatch counts tuples covered by both with predictions
	// further apart than the tolerance.
	PredictionMismatch int
	// MaxDelta is the largest prediction gap over commonly covered tuples.
	MaxDelta float64
}

// CompareOn evaluates both rule sets on every tuple of rel, each in one
// PredictBatch pass.
func CompareOn(rel *dataset.Relation, a, b *RuleSet, tol float64) Diff {
	pa, ca := a.PredictBatch(rel)
	pb, cb := b.PredictBatch(rel)
	d := Diff{Tuples: rel.Len()}
	for i := range pa {
		switch {
		case ca[i] != cb[i]:
			d.CoverageMismatch++
		case !ca[i]:
			d.Agree++
		default:
			delta := pa[i] - pb[i]
			if delta < 0 {
				delta = -delta
			}
			if delta > d.MaxDelta {
				d.MaxDelta = delta
			}
			if delta <= tol {
				d.Agree++
			} else {
				d.PredictionMismatch++
			}
		}
	}
	return d
}

// Equivalent reports whether the diff found no mismatches.
func (d Diff) Equivalent() bool {
	return d.CoverageMismatch == 0 && d.PredictionMismatch == 0
}
