package core

import (
	"math"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// lineSchema: X (numeric), Y (numeric), Tag (categorical).
func lineSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "X", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Tag", Kind: dataset.Categorical},
	)
}

func lineTuple(x, y float64, tag string) dataset.Tuple {
	return dataset.Tuple{dataset.Num(x), dataset.Num(y), dataset.Str(tag)}
}

// ruleOn builds φ : (f, ρ, ℂ) regressing Y (attr 1) on X (attr 0).
func ruleOn(f regress.Model, rho float64, cond predicate.DNF) CRR {
	return CRR{Model: f, Rho: rho, Cond: cond, XAttrs: []int{0}, YAttr: 1}
}

func TestCRRSemantics(t *testing.T) {
	// f(x) = 2x, ρ = 0.5, ℂ = (X ≥ 0).
	phi := ruleOn(regress.NewLinear(0, 2), 0.5, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 0))))
	if !phi.Sat(lineTuple(1, 2.3, "a")) {
		t.Error("tuple within ρ rejected")
	}
	if phi.Sat(lineTuple(1, 3.0, "a")) {
		t.Error("tuple outside ρ accepted")
	}
	// Vacuous satisfaction when t ⊭ ℂ.
	if !phi.Sat(lineTuple(-1, 99, "a")) {
		t.Error("uncovered tuple must satisfy vacuously")
	}
}

func TestCRRSemanticsWithBuiltins(t *testing.T) {
	// f(x) = 2x with built-in x = 3, y = 5: prediction is f(x+3)+5 = 2x+11.
	conj := predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 0))
	conj.Builtin = conj.Builtin.WithXShift(0, 3).WithYShift(5)
	phi := ruleOn(regress.NewLinear(0, 2), 0.1, predicate.NewDNF(conj))
	pred, ok := phi.Predict(lineTuple(1, 0, "a"))
	if !ok || pred != 13 {
		t.Fatalf("Predict = %v, %v; want 13", pred, ok)
	}
	if !phi.Sat(lineTuple(1, 13.05, "a")) {
		t.Error("shifted prediction within ρ rejected")
	}
	if phi.Sat(lineTuple(1, 2, "a")) {
		t.Error("unshifted value accepted under shifted rule")
	}
}

func TestCRRBuiltinPerConjunction(t *testing.T) {
	// Two disjuncts with different δ, the φ₃ pattern of Example 2.
	c1 := predicate.NewConjunction(predicate.NumPred(0, predicate.Lt, 10))
	c2 := predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 10))
	c2.Builtin = c2.Builtin.WithYShift(100)
	phi := ruleOn(regress.NewLinear(0, 1), 0.1, predicate.NewDNF(c1, c2))
	if p, _ := phi.Predict(lineTuple(5, 0, "a")); p != 5 {
		t.Errorf("first-disjunct prediction = %v, want 5", p)
	}
	if p, _ := phi.Predict(lineTuple(20, 0, "a")); p != 120 {
		t.Errorf("second-disjunct prediction = %v, want 120", p)
	}
}

func TestCRRPredictNullX(t *testing.T) {
	phi := ruleOn(regress.NewLinear(0, 1), 1, predicate.NewDNF(predicate.NewConjunction()))
	_, ok := phi.Predict(dataset.Tuple{dataset.Null(), dataset.Num(1), dataset.Str("a")})
	if ok {
		t.Error("Predict succeeded with a null X cell")
	}
}

func TestCRRSatNullY(t *testing.T) {
	phi := ruleOn(regress.NewLinear(0, 1), 0.1, predicate.NewDNF(predicate.NewConjunction()))
	if !phi.Sat(dataset.Tuple{dataset.Num(1), dataset.Null(), dataset.Str("a")}) {
		t.Error("null target should satisfy (unverifiable)")
	}
}

func TestCRRTrivial(t *testing.T) {
	phi := CRR{Model: regress.NewLinear(0, 1), XAttrs: []int{1}, YAttr: 1}
	if !phi.Trivial() {
		t.Error("Y ∈ X not flagged trivial (Reflexivity)")
	}
	phi.XAttrs = []int{0}
	if phi.Trivial() {
		t.Error("Y ∉ X flagged trivial")
	}
}

func TestRuleSetPredictFirstMatchAndFallback(t *testing.T) {
	low := ruleOn(regress.NewConstant(1, 1), 0.1, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Lt, 0))))
	high := ruleOn(regress.NewConstant(2, 1), 0.1, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Gt, 10))))
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Rules: []CRR{low, high}, Fallback: 7}
	if p, ok := rs.Predict(lineTuple(-5, 0, "a")); !ok || p != 1 {
		t.Errorf("low rule predict = %v, %v", p, ok)
	}
	if p, ok := rs.Predict(lineTuple(20, 0, "a")); !ok || p != 2 {
		t.Errorf("high rule predict = %v, %v", p, ok)
	}
	if p, ok := rs.Predict(lineTuple(5, 0, "a")); ok || p != 7 {
		t.Errorf("fallback predict = %v, %v", p, ok)
	}
}

func TestRuleSetCoverageAndRMSE(t *testing.T) {
	phi := ruleOn(regress.NewLinear(0, 2), 0.5, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 0))))
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Rules: []CRR{phi}, Fallback: 0}
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(lineTuple(1, 2, "a"))  // exact
	rel.MustAppend(lineTuple(2, 5, "a"))  // error 1
	rel.MustAppend(lineTuple(-1, 0, "a")) // uncovered → fallback 0, error 0
	if c := rs.Coverage(rel); math.Abs(c-2.0/3) > 1e-12 {
		t.Errorf("Coverage = %v, want 2/3", c)
	}
	want := math.Sqrt((0 + 1 + 0) / 3.0)
	if r := rs.RMSE(rel); math.Abs(r-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", r, want)
	}
	empty := dataset.NewRelation(lineSchema())
	if rs.RMSE(empty) != 0 || rs.Coverage(empty) != 1 {
		t.Error("empty relation RMSE/Coverage defaults wrong")
	}
}

func TestRuleSetNumModels(t *testing.T) {
	f := regress.NewLinear(0, 2)
	g := regress.NewLinear(5, 2)
	cond := predicate.NewDNF(predicate.NewConjunction())
	rs := &RuleSet{Rules: []CRR{
		ruleOn(f, 1, cond), ruleOn(f, 1, cond), ruleOn(g, 1, cond),
	}}
	if n := rs.NumModels(); n != 2 {
		t.Errorf("NumModels = %d, want 2", n)
	}
	if n := rs.NumRules(); n != 3 {
		t.Errorf("NumRules = %d, want 3", n)
	}
}

func TestRuleSetHolds(t *testing.T) {
	phi := ruleOn(regress.NewLinear(0, 2), 0.5, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 0))))
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Rules: []CRR{phi}}
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(lineTuple(1, 2.2, "a"))
	rel.MustAppend(lineTuple(1, 2.1, "a"))
	// An uncovered tuple and a null target violate nothing.
	rel.MustAppend(lineTuple(-1, 99, "a"))
	rel.MustAppend(dataset.Tuple{dataset.Num(3), dataset.Null(), dataset.Str("a")})
	if !rs.Holds(rel) {
		t.Error("satisfying relation reported as violating")
	}
	rel.MustAppend(lineTuple(1, 4, "a"))
	if rs.Holds(rel) {
		t.Error("violating relation reported as holding")
	}
}

func TestFeatureRows(t *testing.T) {
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(lineTuple(1, 10, "a"))
	rel.MustAppend(dataset.Tuple{dataset.Null(), dataset.Num(20), dataset.Str("a")})
	rel.MustAppend(dataset.Tuple{dataset.Num(3), dataset.Null(), dataset.Str("a")})
	rel.MustAppend(lineTuple(4, 40, "a"))
	x, y, kept := FeatureRows(rel, []int{0, 1, 2, 3}, []int{0}, 1)
	if len(x) != 2 || len(y) != 2 {
		t.Fatalf("FeatureRows kept %d rows, want 2", len(x))
	}
	if x[0][0] != 1 || y[0] != 10 || x[1][0] != 4 || y[1] != 40 {
		t.Errorf("FeatureRows content: %v %v", x, y)
	}
	if len(kept) != 2 || kept[0] != 0 || kept[1] != 3 {
		t.Errorf("kept = %v, want [0 3]", kept)
	}
}

func TestCRRStringAndFormat(t *testing.T) {
	phi := ruleOn(regress.NewLinear(0, 2), 0.5, predicate.NewDNF(
		predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, 0))))
	if phi.String() == "" {
		t.Error("empty String")
	}
	if s := phi.Format(lineSchema()); s == "" {
		t.Error("empty Format")
	}
}
