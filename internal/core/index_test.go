package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// predictLinearScan is the reference implementation the bucket index must
// match: first rule whose first matching conjunction applies.
func predictLinearScan(s *RuleSet, t dataset.Tuple) (float64, bool) {
	for i := range s.Rules {
		if p, ok := s.Rules[i].Predict(t); ok {
			return p, true
		}
	}
	return s.Fallback, false
}

// randomRuleSet builds rules with random interval windows (some one-sided,
// some unbounded, some categorical-only) and random builtins.
func randomRuleSet(rng *rand.Rand) *RuleSet {
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Fallback: rng.NormFloat64()}
	nRules := 1 + rng.Intn(6)
	for r := 0; r < nRules; r++ {
		nConjs := 1 + rng.Intn(3)
		var conjs []predicate.Conjunction
		for c := 0; c < nConjs; c++ {
			conj := predicate.NewConjunction()
			switch rng.Intn(5) {
			case 0: // bounded window
				lo := float64(rng.Intn(20) - 10)
				conj = conj.And(predicate.NumPred(0, predicate.Ge, lo)).
					And(predicate.NumPred(0, predicate.Lt, lo+float64(1+rng.Intn(8))))
			case 1: // one-sided lower
				conj = conj.And(predicate.NumPred(0, predicate.Gt, float64(rng.Intn(20)-10)))
			case 2: // one-sided upper
				conj = conj.And(predicate.NumPred(0, predicate.Le, float64(rng.Intn(20)-10)))
			case 3: // categorical only (overflow path)
				conj = conj.And(predicate.StrPred(2, []string{"a", "b"}[rng.Intn(2)]))
			case 4: // point
				conj = conj.And(predicate.NumPred(0, predicate.Eq, float64(rng.Intn(20)-10)))
			}
			if rng.Intn(2) == 0 {
				conj.Builtin = conj.Builtin.WithYShift(rng.NormFloat64())
			}
			conjs = append(conjs, conj)
		}
		rs.Rules = append(rs.Rules, CRR{
			Model:  regress.NewLinear(rng.NormFloat64(), rng.NormFloat64()),
			Rho:    rng.Float64(),
			Cond:   predicate.NewDNF(conjs...),
			XAttrs: []int{0},
			YAttr:  1,
		})
	}
	return rs
}

// Property: the lazily built bucket index returns exactly what a linear scan
// returns, for every query point including nulls and out-of-grid values.
func TestRuleIndexMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRuleSet(rng)
		for trial := 0; trial < 200; trial++ {
			var tp dataset.Tuple
			switch rng.Intn(8) {
			case 0:
				tp = dataset.Tuple{dataset.Null(), dataset.Num(0), dataset.Str("a")}
			case 1: // far outside the grid
				tp = lineTuple(1e6*(rng.Float64()*2-1), 0, "b")
			default:
				tp = lineTuple(float64(rng.Intn(30)-15)+rng.Float64(), 0, []string{"a", "b", "c"}[rng.Intn(3)])
			}
			p1, ok1 := rs.Predict(tp) // indexed
			p2, ok2 := predictLinearScan(rs, tp)
			if ok1 != ok2 || p1 != p2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRuleIndexInvalidate(t *testing.T) {
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Fallback: 7}
	rs.Rules = append(rs.Rules, ruleOn(regress.NewConstant(1, 1), 1, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Lt, 0)))))
	if p, ok := rs.Predict(lineTuple(-1, 0, "a")); !ok || p != 1 {
		t.Fatalf("first predict = %v, %v", p, ok)
	}
	// Mutate rules, then Invalidate: the new rule must be visible.
	rs.Rules = append(rs.Rules, ruleOn(regress.NewConstant(2, 1), 1, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Gt, 10)))))
	rs.Invalidate()
	if p, ok := rs.Predict(lineTuple(20, 0, "a")); !ok || p != 2 {
		t.Errorf("post-invalidate predict = %v, %v", p, ok)
	}
}

func TestRuleIndexEmptyXAttrs(t *testing.T) {
	// A rule set without X attributes (degenerate) must not panic.
	rs := &RuleSet{Schema: lineSchema(), YAttr: 1, Fallback: 5}
	if p, ok := rs.Predict(lineTuple(1, 0, "a")); ok || p != 5 {
		t.Errorf("degenerate predict = %v, %v", p, ok)
	}
}

func TestRuleSetPredictConcurrent(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 11)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	rules := res.Rules
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				rules.Predict(rel.Tuples[(i*7+w)%rel.Len()])
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	// Spot-check a prediction after the concurrent phase.
	if _, ok := rules.Predict(rel.Tuples[0]); !ok {
		t.Error("prediction failed after concurrent access")
	}
}
