package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

func explainRuleSet() *RuleSet {
	// Two rules: f(x)=2x on x≥0 and a second with a y=10 builtin on x≥5, so
	// one tuple can match both.
	c2 := predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 5))
	c2.Builtin = c2.Builtin.WithYShift(10)
	return &RuleSet{
		Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Fallback: 7,
		Rules: []CRR{
			ruleOn(regress.NewLinear(0, 2), 0.5, predicate.NewDNF(
				predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 0)))),
			ruleOn(regress.NewLinear(0, 2), 0.5, predicate.NewDNF(c2)),
		},
	}
}

// explainTuple explains one tuple through ExplainView over a one-row column
// set.
func explainTuple(s *RuleSet, tp dataset.Tuple) Explanation {
	rel := dataset.NewRelation(s.Schema)
	rel.MustAppend(tp)
	return ExplainView(dataset.NewColumnSet(rel).View(), s)[0]
}

func TestExplainCoveredTuple(t *testing.T) {
	rs := explainRuleSet()
	e := explainTuple(rs, lineTuple(6, 12.2, "a"))
	if !e.Covered {
		t.Fatal("covered tuple reported uncovered")
	}
	if len(e.Matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(e.Matches))
	}
	// First match drives the prediction: rule 0, f(6)=12.
	if e.Prediction != 12 || e.Matches[0].RuleIndex != 0 {
		t.Errorf("prediction %v via rule %d", e.Prediction, e.Matches[0].RuleIndex)
	}
	if !e.Matches[0].Satisfied {
		t.Error("rule 0 should be satisfied (|12.2−12| ≤ 0.5)")
	}
	// Second rule predicts f(6)+10 = 22 → deviation 9.8 → violated.
	if e.Matches[1].Prediction != 22 || e.Matches[1].Satisfied {
		t.Errorf("rule 1: pred %v satisfied %v", e.Matches[1].Prediction, e.Matches[1].Satisfied)
	}
	out := e.Format(rs)
	if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "y=10") {
		t.Errorf("Format missing detail:\n%s", out)
	}
}

func TestExplainUncovered(t *testing.T) {
	rs := explainRuleSet()
	e := explainTuple(rs, lineTuple(-3, 0, "a"))
	if e.Covered || e.Prediction != 7 {
		t.Errorf("uncovered explanation: %+v", e)
	}
	if !strings.Contains(e.Format(rs), "uncovered") {
		t.Error("Format missing uncovered notice")
	}
}

func TestExplainNullTarget(t *testing.T) {
	rs := explainRuleSet()
	e := explainTuple(rs, dataset.Tuple{dataset.Num(2), dataset.Null(), dataset.Str("a")})
	if !e.Covered || len(e.Matches) != 1 {
		t.Fatalf("explanation: %+v", e)
	}
	if !math.IsNaN(e.Matches[0].Deviation) || !e.Matches[0].Satisfied {
		t.Error("null target should have NaN deviation and count satisfied")
	}
}

func TestExplainAgreesWithPredictAndViolations(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 13)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	es := ExplainView(dataset.NewColumnSet(rel).View(), res.Rules)
	for i, tp := range rel.Tuples {
		e := es[i]
		p, ok := res.Rules.Predict(tp)
		if e.Covered != ok || (ok && absDiff(e.Prediction, p) > 1e-12) {
			t.Fatalf("Explain disagrees with Predict: %v/%v vs %v/%v", e.Prediction, e.Covered, p, ok)
		}
	}
}
