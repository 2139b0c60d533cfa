package predicate

import (
	"math"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
)

// Implication must never be derived from NaN constants, and conjunctions
// carrying a NaN threshold are unsatisfiable — they must not be simplified
// into broader (or universal) conditions.

func TestPredicateImpliesEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		p, q Predicate
		want bool
	}{
		{"gt-implies-gt", NumPred(0, Gt, 5), NumPred(0, Gt, 3), true},
		{"gt-not-implied", NumPred(0, Gt, 3), NumPred(0, Gt, 5), false},
		{"eq-implies-le", NumPred(0, Eq, 4), NumPred(0, Le, 4), true},
		{"nan-left", NumPred(0, Gt, nan), NumPred(0, Gt, 3), false},
		{"nan-right", NumPred(0, Gt, 5), NumPred(0, Gt, nan), false},
		{"nan-both", NumPred(0, Le, nan), NumPred(0, Le, nan), false},
		{"nan-eq", NumPred(0, Eq, nan), NumPred(0, Le, nan), false},
		{"inf-still-ordered", NumPred(0, Gt, math.Inf(1)), NumPred(0, Gt, 3), true},
		{"cross-attr", NumPred(0, Gt, 5), NumPred(1, Gt, 3), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Implies(tc.q); got != tc.want {
				t.Errorf("(%v).Implies(%v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestConjunctionImpliesEdgeCases(t *testing.T) {
	nan := math.NaN()
	top := NewConjunction()
	single := NewConjunction(NumPred(0, Ge, 5), NumPred(0, Le, 5)) // the point x = 5
	nanConj := NewConjunction(NumPred(0, Gt, nan))
	cases := []struct {
		name string
		c, d Conjunction
		want bool
	}{
		{"anything-implies-top", single, top, true},
		{"top-implies-top", top, top, true},
		{"top-implies-nothing-else", top, NewConjunction(NumPred(0, Gt, 0)), false},
		{"single-point-implies-wider", single, NewConjunction(NumPred(0, Le, 7)), true},
		{"single-point-implies-bound", single, NewConjunction(NumPred(0, Ge, 5)), true},
		{"wider-not-implied", NewConjunction(NumPred(0, Le, 7)), single, false},
		{"nan-implies-nothing", nanConj, NewConjunction(NumPred(0, Gt, 0)), false},
		{"nan-not-even-top", nanConj, top, false},
		{"nothing-implies-nan", NewConjunction(NumPred(0, Gt, 0)), nanConj, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.c.Implies(tc.d); got != tc.want {
				t.Errorf("(%v).Implies(%v) = %v, want %v", tc.c, tc.d, got, tc.want)
			}
		})
	}
}

// TestNormalizeNaNStaysUnsatisfiable is the regression for the summarize NaN
// bug: a NaN threshold left the numeric interval untouched, so Normalize
// generalized the (unsatisfiable) conjunction into the predicates that were
// left — or ⊤ — silently widening the rule's coverage.
func TestNormalizeNaNStaysUnsatisfiable(t *testing.T) {
	nan := math.NaN()
	for _, op := range []Op{Gt, Ge, Lt, Le, Eq} {
		c := NewConjunction(NumPred(0, op, nan), NumPred(1, Ge, 3))
		if !c.Unsatisfiable() {
			t.Errorf("op %v: NaN conjunction reported satisfiable", op)
		}
		n := c.Normalize()
		tp := dataset.Tuple{dataset.Num(10), dataset.Num(10)}
		if n.Sat(tp) {
			t.Errorf("op %v: Normalize widened a NaN conjunction to cover %v", op, tp)
		}
	}

	// Sanity: an ordinary contradiction is also unsatisfiable, and a clean
	// single-point interval survives normalization.
	contra := NewConjunction(NumPred(0, Gt, 5), NumPred(0, Lt, 5))
	if !contra.Unsatisfiable() {
		t.Error("x>5 ∧ x<5 reported satisfiable")
	}
	point := NewConjunction(NumPred(0, Ge, 5), NumPred(0, Le, 5))
	if point.Unsatisfiable() {
		t.Error("x≥5 ∧ x≤5 reported unsatisfiable")
	}
	if !point.Normalize().Sat(dataset.Tuple{dataset.Num(5), dataset.Num(0)}) {
		t.Error("normalized single-point interval no longer covers its point")
	}
}

// TestDNFImpliesNaN: DNF-level implication must also refuse NaN-poisoned
// disjuncts rather than deriving coverage from them.
func TestDNFImpliesNaN(t *testing.T) {
	nan := math.NaN()
	clean := NewDNF(NewConjunction(NumPred(0, Ge, 0), NumPred(0, Le, 10)))
	wide := NewDNF(NewConjunction(NumPred(0, Ge, -5), NumPred(0, Le, 15)))
	poisoned := NewDNF(NewConjunction(NumPred(0, Le, nan)))
	if !clean.Implies(wide) {
		t.Error("refinement not detected on clean DNFs")
	}
	if poisoned.Implies(wide) {
		t.Error("NaN disjunct implied a clean DNF")
	}
	if clean.Implies(poisoned) {
		t.Error("clean DNF implied a NaN disjunct")
	}
}

// TestNaNCellsStayOutOfDomains: a NaN cell is skipped like a null one. At
// the parent a map kept each NaN as its own value, so the column below had
// the domain [NaN NaN 1 … 8], the default space gained two pairs that
// select nothing, and Binary-8 spent one of its four cuts on NaN.
func TestNaNCellsStayOutOfDomains(t *testing.T) {
	nan := math.NaN()
	rel := dataset.NewRelation(dataset.MustSchema(dataset.Attribute{Name: "A0", Kind: dataset.Numeric}))
	for _, v := range []float64{1, nan, 2, nan, 3, 4, 5, 6, 7, 8} {
		rel.MustAppend(dataset.Tuple{dataset.Num(v)})
	}
	cs := dataset.NewColumnSet(rel)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, d := range []struct {
		name string
		dom  []float64
	}{{"Relation", rel.Domain(0)}, {"ColumnSet", cs.Domain(0)}} {
		name, dom := d.name, d.dom
		if len(dom) != len(want) {
			t.Fatalf("%s.Domain = %v, want %v", name, dom, want)
		}
		for i := range want {
			if dom[i] != want[i] {
				t.Fatalf("%s.Domain = %v, want %v", name, dom, want)
			}
		}
	}
	cuts := func(preds []Predicate) []float64 {
		var out []float64
		for _, p := range preds {
			if math.IsNaN(p.Num) {
				t.Fatalf("predicate %v has a NaN constant", p)
			}
			if p.Op == Le {
				out = append(out, p.Num)
			}
		}
		return out
	}
	for _, g := range []struct {
		name string
		gen  func(GeneratorConfig) []Predicate
	}{
		{"Generate", func(cfg GeneratorConfig) []Predicate { return Generate(rel, []int{0}, cfg) }},
		{"GenerateColumns", func(cfg GeneratorConfig) []Predicate { return GenerateColumns(cs, []int{0}, cfg) }},
	} {
		name, gen := g.name, g.gen
		if got := cuts(gen(GeneratorConfig{})); len(got) != 7 {
			t.Errorf("%s default space: cuts %v, want 7 pairs at 1 … 7", name, got)
		}
		got := cuts(gen(GeneratorConfig{Kind: Binary, Size: 8}))
		if wantCuts := []float64{2, 3, 5, 7}; len(got) != len(wantCuts) {
			t.Errorf("%s Binary-8: cuts %v, want %v", name, got, wantCuts)
		} else {
			for i := range wantCuts {
				if got[i] != wantCuts[i] {
					t.Errorf("%s Binary-8: cuts %v, want %v", name, got, wantCuts)
					break
				}
			}
		}
	}
}
