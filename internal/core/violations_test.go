package core

import (
	"context"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

func violationRuleSet() *RuleSet {
	// f(x) = 2x with ρ = 0.5 on x ≥ 0.
	phi := ruleOn(regress.NewLinear(0, 2), 0.5, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 0))))
	return &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Rules: []CRR{phi}}
}

func TestViolationsDetects(t *testing.T) {
	rs := violationRuleSet()
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(lineTuple(1, 2.2, "a"))                                          // ok (|2.2−2| ≤ 0.5)
	rel.MustAppend(lineTuple(2, 7, "a"))                                            // violation (|7−4| = 3)
	rel.MustAppend(lineTuple(-1, 99, "a"))                                          // uncovered → no violation
	rel.MustAppend(dataset.Tuple{dataset.Num(3), dataset.Null(), dataset.Str("a")}) // null Y

	vs := Violations(rel, rs)
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1: %+v", len(vs), vs)
	}
	v := vs[0]
	if v.TupleIndex != 1 || v.RuleIndex != 0 {
		t.Errorf("violation at %d/%d", v.TupleIndex, v.RuleIndex)
	}
	if v.Observed != 7 || v.Predicted != 4 {
		t.Errorf("observed/predicted = %v/%v", v.Observed, v.Predicted)
	}
	if absDiff(v.Excess, 2.5) > 1e-9 {
		t.Errorf("excess = %v, want 2.5", v.Excess)
	}
}

func TestHoldsAll(t *testing.T) {
	rs := violationRuleSet()
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(lineTuple(1, 2.1, "a"))
	if !rs.Holds(rel) {
		t.Error("clean relation reported violating")
	}
	rel.MustAppend(lineTuple(1, 5, "a"))
	if rs.Holds(rel) {
		t.Error("violating relation reported clean")
	}
}

// TestRepair: every violation carries its tuple's first-match prediction,
// the value Predict returns for it, even when the violated rule is not the
// first to cover the tuple.
func TestRepair(t *testing.T) {
	rs := violationRuleSet()
	// f(x) = 2x + 10 on x ≥ 1 also covers every tuple from x = 1 up.
	c := predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 1))
	c.Builtin = c.Builtin.WithYShift(10)
	rs.Rules = append(rs.Rules, ruleOn(regress.NewLinear(0, 2), 0.5, predicate.NewDNF(c)))
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(lineTuple(2, 7, "a")) // violates both rules (4 and 14)
	rel.MustAppend(lineTuple(2, 4, "a")) // violates only the second
	vs := Violations(rel, rs)
	if len(vs) != 3 {
		t.Fatalf("violations = %d, want 3: %+v", len(vs), vs)
	}
	for _, v := range vs {
		p, ok := rs.Predict(rel.Tuples[v.TupleIndex])
		if !ok || v.Repair != 4 || v.Repair != p {
			t.Errorf("violation %+v: repair %v, want 4 = Predict %v (covered %v)", v, v.Repair, p, ok)
		}
	}
}

func TestViolationsAgreeWithHolds(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 5)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if vs := Violations(rel, res.Rules); len(vs) != 0 {
		t.Errorf("discovery output violates its own training data: %d violations", len(vs))
	}
	if !res.Rules.Holds(rel) {
		t.Error("Holds disagrees with Violations")
	}
	// Break one tuple and confirm both detectors agree.
	broken := rel.Tuples[10].Clone()
	broken[1] = dataset.Num(broken[1].Num + 100)
	rel.Tuples[10] = broken
	vs := Violations(rel, res.Rules)
	if len(vs) == 0 {
		t.Fatal("doctored tuple not detected")
	}
	if res.Rules.Holds(rel) {
		t.Error("Holds missed the doctored tuple")
	}
	if vs[0].TupleIndex != 10 {
		t.Errorf("violation at tuple %d, want 10", vs[0].TupleIndex)
	}
}
