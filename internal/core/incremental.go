package core

import (
	"context"
	"math"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
)

// Incremental maintenance: rather than re-running discovery over the whole
// database when tuples arrive, classify each new tuple against the existing
// rule set — already explained tuples need nothing, tuples explainable by
// widening a rule's bias within ρ_M are absorbed by Generalization, and only
// the remainder goes through Algorithm 1 (seeded with the existing models so
// sharing still applies).

// MaintainStats reports how the new tuples were absorbed.
type MaintainStats struct {
	// Satisfied tuples were covered by a rule and within its bias.
	Satisfied int
	// Widened tuples were covered but beyond the rule's ρ, within ρ_M; the
	// covering rule's bias was widened (Generalization, Proposition 4).
	Widened int
	// Rediscovered tuples were uncovered or beyond ρ_M and went through
	// discovery.
	Rediscovered int
	// Refined counts existing rules whose conditions were tightened
	// (Induction, Proposition 2) to exclude a separable new regime that
	// violated them.
	Refined int
	// Conflicts counts rules still violated by new tuples that could not be
	// separated by a boundary predicate; the caller should re-discover from
	// scratch when this is non-zero.
	Conflicts int
	// NewRules is the number of rules discovery added.
	NewRules int
	// Discover carries the inner discovery statistics.
	Discover DiscoverStats
}

// Maintain ingests the tuples of rel at positions newIdx into rule set s and
// returns the updated set (the input set is not modified). cfg supplies the
// discovery parameters for the tuples that need new rules; cfg.SeedModels is
// overwritten with the existing rules' models. ctx cancels the inner
// discovery at its queue-pop granularity.
func Maintain(ctx context.Context, rel *dataset.Relation, s *RuleSet, newIdx []int, cfg DiscoverConfig) (*RuleSet, MaintainStats, error) {
	var st MaintainStats
	out := &RuleSet{
		Schema:   s.Schema,
		XAttrs:   append([]int(nil), s.XAttrs...),
		YAttr:    s.YAttr,
		Fallback: s.Fallback,
	}
	out.Rules = make([]CRR, len(s.Rules))
	for i, r := range s.Rules {
		out.Rules[i] = r
		out.Rules[i].Cond = r.Cond.Clone()
	}

	var retrain []int
	for _, ti := range newIdx {
		t := rel.Tuples[ti]
		if t[s.YAttr].Null {
			continue // nothing to check; imputation handles null targets
		}
		switch classifyTuple(out, t, cfg.RhoM) {
		case tupleSatisfied:
			st.Satisfied++
		case tupleWidened:
			st.Widened++
		default:
			retrain = append(retrain, ti)
		}
	}
	st.Rediscovered = len(retrain)
	if len(retrain) == 0 {
		return out, st, nil
	}

	// Old rules may still cover (and be violated by) the retrain tuples —
	// e.g. an open-ended window claiming a brand-new regime. Tighten such
	// rules' conditions to exclude the new region where a boundary predicate
	// separates old satisfied data from the violators; that refinement is
	// sound by Induction.
	refineViolatedRules(rel, out, retrain, &st)

	sub := dataset.NewRelation(rel.Schema)
	for _, ti := range retrain {
		sub.Tuples = append(sub.Tuples, rel.Tuples[ti])
	}
	cfg.SeedModels = nil
	for i := range out.Rules {
		cfg.SeedModels = append(cfg.SeedModels, out.Rules[i].Model)
	}
	res, err := discoverFor(ctx, buildColumns(sub, cfg.Telemetry), cfg)
	if err != nil {
		return nil, st, err
	}
	// Conditions discovered on the retrain sub-relation can be over-general
	// (up to ⊤ when one model fits all retrain tuples) and would then claim
	// old tuples they were never checked against. Guard every new rule by
	// the retrain tuples' bounding box on the primary X attribute —
	// a sound Induction refinement that keeps all retrain tuples covered.
	guardNewRules(rel, res.Rules, retrain)
	st.Discover = res.Stats
	st.NewRules = res.Rules.NumRules()
	out.Rules = append(out.Rules, res.Rules.Rules...)
	out.Invalidate()
	return out, st, nil
}

// guardNewRules conjoins the retrain bounding box on the first X attribute
// to every conjunction of the freshly discovered rules.
func guardNewRules(rel *dataset.Relation, s *RuleSet, retrain []int) {
	if len(s.XAttrs) == 0 || len(retrain) == 0 {
		return
	}
	attr := s.XAttrs[0]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ti := range retrain {
		v := rel.Tuples[ti][attr]
		if v.Null {
			continue
		}
		if v.Num < lo {
			lo = v.Num
		}
		if v.Num > hi {
			hi = v.Num
		}
	}
	if math.IsInf(lo, 1) {
		return
	}
	for ri := range s.Rules {
		for ci := range s.Rules[ri].Cond.Conjs {
			c := s.Rules[ri].Cond.Conjs[ci].
				And(predicate.NumPred(attr, predicate.Ge, lo)).
				And(predicate.NumPred(attr, predicate.Le, hi))
			s.Rules[ri].Cond.Conjs[ci] = c.Normalize()
		}
	}
	s.Invalidate()
}

// refineViolatedRules tightens the conditions of rules that the retrain
// tuples violate beyond repair. For each such rule, the covered tuples split
// into satisfied ones (the rule's legitimate part) and violators; when a
// threshold on the primary X attribute separates the two groups, the
// separating predicate is conjoined to every conjunction of the rule's
// condition, excluding the violators while keeping every satisfied tuple.
func refineViolatedRules(rel *dataset.Relation, s *RuleSet, retrain []int, st *MaintainStats) {
	if len(s.XAttrs) == 0 {
		return
	}
	attr := s.XAttrs[0]
	for ri := range s.Rules {
		r := &s.Rules[ri]
		// Violating retrain tuples covered by this rule.
		violLo, violHi := math.Inf(1), math.Inf(-1)
		nViol := 0
		for _, ti := range retrain {
			t := rel.Tuples[ti]
			if t[s.YAttr].Null || t[attr].Null {
				continue
			}
			pred, ok := r.Predict(t)
			if !ok {
				continue
			}
			if math.Abs(t[s.YAttr].Num-pred) > r.Rho+satSlack {
				v := t[attr].Num
				if v < violLo {
					violLo = v
				}
				if v > violHi {
					violHi = v
				}
				nViol++
			}
		}
		if nViol == 0 {
			continue
		}
		// The rule's satisfied span on the same attribute.
		satLo, satHi := math.Inf(1), math.Inf(-1)
		for _, t := range rel.Tuples {
			if t[s.YAttr].Null || t[attr].Null {
				continue
			}
			pred, ok := r.Predict(t)
			if !ok {
				continue
			}
			if math.Abs(t[s.YAttr].Num-pred) <= r.Rho+satSlack {
				v := t[attr].Num
				if v < satLo {
					satLo = v
				}
				if v > satHi {
					satHi = v
				}
			}
		}
		var bound predicate.Predicate
		switch {
		case satHi < violLo:
			bound = predicate.NumPred(attr, predicate.Le, satHi)
		case violHi < satLo:
			bound = predicate.NumPred(attr, predicate.Ge, satLo)
		default:
			st.Conflicts++
			continue
		}
		for ci := range r.Cond.Conjs {
			r.Cond.Conjs[ci] = r.Cond.Conjs[ci].And(bound).Normalize()
		}
		st.Refined++
	}
	s.Invalidate()
}

type tupleClass int

const (
	tupleSatisfied tupleClass = iota
	tupleWidened
	tupleNeedsRules
)

// classifyTuple checks t against EVERY covering rule of s — the CRR
// semantics are per-rule, so a tuple satisfied by one covering rule can
// still violate another. Satisfied means every covering rule holds; widened
// means every covering rule can be brought to hold by raising its ρ within
// ρ_M (applied in place — sound by Generalization); anything else needs new
// rules and condition refinement.
func classifyTuple(s *RuleSet, t dataset.Tuple, rhoM float64) tupleClass {
	covered := false
	type widen struct {
		rule int
		rho  float64
	}
	var widens []widen
	for ri := range s.Rules {
		r := &s.Rules[ri]
		pred, ok := r.Predict(t)
		if !ok {
			continue
		}
		covered = true
		dev := math.Abs(t[s.YAttr].Num - pred)
		if dev <= r.Rho+satSlack {
			continue
		}
		if dev > rhoM {
			return tupleNeedsRules // some covering rule is beyond repair
		}
		widens = append(widens, widen{ri, dev})
	}
	if !covered {
		return tupleNeedsRules
	}
	if len(widens) == 0 {
		return tupleSatisfied
	}
	for _, w := range widens {
		if w.rho > s.Rules[w.rule].Rho {
			s.Rules[w.rule].Rho = w.rho
		}
	}
	return tupleWidened
}
