package predicate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/crrlab/crr/internal/dataset"
)

func window(lo, hi float64) Conjunction {
	return NewConjunction(NumPred(0, Ge, lo), NumPred(0, Lt, hi))
}

// merge0 is MergeWindows at tolerance 0, the exact merge compaction runs;
// the exact merge must report no δ spread.
func merge0(t *testing.T, d DNF) DNF {
	t.Helper()
	m, spread := d.MergeWindows(0)
	if spread != 0 {
		t.Fatalf("MergeWindows(0) of %v reported δ spread %v", d, spread)
	}
	return m
}

func TestMergeAdjacentChain(t *testing.T) {
	d := NewDNF(window(0, 10), window(10, 20), window(20, 30))
	m := merge0(t, d)
	if len(m.Conjs) != 1 {
		t.Fatalf("merged to %d disjuncts, want 1: %v", len(m.Conjs), m)
	}
	lo, hi, ok := m.Conjs[0].NumericBounds(0)
	if !ok || lo != 0 || hi != 30 {
		t.Errorf("merged bounds [%v, %v]", lo, hi)
	}
}

func TestMergeAdjacentKeepsGaps(t *testing.T) {
	d := NewDNF(window(0, 10), window(15, 20))
	m := merge0(t, d)
	if len(m.Conjs) != 2 {
		t.Fatalf("gap merged away: %v", m)
	}
}

func TestMergeAdjacentRespectsBuiltins(t *testing.T) {
	a := window(0, 10)
	b := window(10, 20)
	b.Builtin = b.Builtin.WithYShift(5) // different shift → no merge
	m := merge0(t, NewDNF(a, b))
	if len(m.Conjs) != 2 {
		t.Fatalf("windows with different builtins merged: %v", m)
	}
	// Equal builtins do merge.
	c := window(10, 20)
	c.Builtin = c.Builtin.WithYShift(5)
	d := window(0, 10)
	d.Builtin = d.Builtin.WithYShift(5)
	m = merge0(t, NewDNF(d, c))
	if len(m.Conjs) != 1 {
		t.Fatalf("equal-builtin windows did not merge: %v", m)
	}
	if m.Conjs[0].Builtin.YShift != 5 {
		t.Error("merged window lost its builtin")
	}
}

func TestMergeAdjacentRespectsContext(t *testing.T) {
	a := window(0, 10).And(StrPred(1, "x"))
	b := window(10, 20).And(StrPred(1, "y"))
	m := merge0(t, NewDNF(a, b))
	if len(m.Conjs) != 2 {
		t.Fatalf("windows with different categorical context merged: %v", m)
	}
	c := window(10, 20).And(StrPred(1, "x"))
	m = merge0(t, NewDNF(a, c))
	if len(m.Conjs) != 1 {
		t.Fatalf("same-context windows did not merge: %v", m)
	}
	// The context predicate survives the merge.
	withX := dataset.Tuple{dataset.Num(5), dataset.Str("x")}
	withY := dataset.Tuple{dataset.Num(5), dataset.Str("y")}
	if !m.Conjs[0].Sat(withX) || m.Conjs[0].Sat(withY) {
		t.Error("context lost in merge")
	}
}

func TestMergeAdjacentBoundaryClosedness(t *testing.T) {
	// (0,10) and (10,20) — both open at 10 — leave a hole; no merge.
	a := NewConjunction(NumPred(0, Gt, 0), NumPred(0, Lt, 10))
	b := NewConjunction(NumPred(0, Gt, 10), NumPred(0, Lt, 20))
	if m := merge0(t, NewDNF(a, b)); len(m.Conjs) != 2 {
		t.Fatalf("open-open boundary merged over the hole at 10: %v", m)
	}
	// (0,10] and (10,20) touch: merge.
	c := NewConjunction(NumPred(0, Gt, 0), NumPred(0, Le, 10))
	if m := merge0(t, NewDNF(c, b)); len(m.Conjs) != 1 {
		t.Fatalf("closed-open boundary did not merge: %v", m)
	}
	// (5,7) sorts before [5,10) on the tied low end; the merged window
	// must still include 5.
	e := NewConjunction(NumPred(0, Gt, 5), NumPred(0, Lt, 7))
	f := NewConjunction(NumPred(0, Ge, 5), NumPred(0, Lt, 10))
	if m := merge0(t, NewDNF(e, f)); len(m.Conjs) != 1 || !m.Sat(tup(5)) {
		t.Fatalf("tied low ends merged to %v, which must be one window covering 5", m)
	}
}

func TestMergeAdjacentPassthrough(t *testing.T) {
	// Disjuncts constraining several numeric attributes pass through.
	multi := NewConjunction(NumPred(0, Ge, 0), NumPred(2, Lt, 5))
	m := merge0(t, NewDNF(multi, window(0, 10)))
	if len(m.Conjs) != 2 {
		t.Fatalf("multi-attribute disjunct handled wrongly: %v", m)
	}
}

// Property: the exact merge preserves coverage and the first-match builtin
// on a 2-D grid. Windows lie on attribute 0 or 1, so a draw can put windows
// on both attributes into what would be one group without the attribute in
// the merge key.
func TestMergeAdjacentPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var conjs []Conjunction
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			attr := rng.Intn(2)
			lo := float64(rng.Intn(12) - 6)
			c := NewConjunction(NumPred(attr, Ge, lo), NumPred(attr, Lt, lo+float64(1+rng.Intn(5))))
			if rng.Intn(3) == 0 {
				c.Builtin = c.Builtin.WithYShift(float64(rng.Intn(2)))
			}
			conjs = append(conjs, c)
		}
		d := NewDNF(conjs...)
		m, spread := d.MergeWindows(0)
		if spread != 0 || len(m.Conjs) > len(d.Conjs) {
			return false
		}
		for x0 := -8.0; x0 <= 14.0; x0 += 0.5 {
			for x1 := -8.0; x1 <= 14.0; x1 += 0.5 {
				tpl := dataset.Tuple{dataset.Num(x0), dataset.Num(x1)}
				// The builtin a tuple resolves to must be preserved.
				c1, ok1 := d.MatchConjunction(tpl)
				c2, ok2 := m.MatchConjunction(tpl)
				if ok1 != ok2 {
					return false
				}
				if ok1 && !c1.Builtin.Equal(c2.Builtin) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// edgeConj draws a conjunction of up to four predicates over numeric
// attributes 0–1 and categorical attributes 2–3. Constants come from a small
// pool, so shared and touching endpoints are common: Eq points, open and
// closed ends, ±Inf and NaN constants, and categorical context.
func edgeConj(rng *rand.Rand) Conjunction {
	consts := []float64{math.Inf(-1), -1, 0, 0.5, 1, 2, math.Inf(1), math.NaN()}
	ops := []Op{Eq, Gt, Ge, Lt, Le}
	var c Conjunction
	for n := rng.Intn(5); n > 0; n-- {
		if rng.Intn(4) == 0 {
			c.Preds = append(c.Preds, StrPred(2+rng.Intn(2), []string{"a", "b"}[rng.Intn(2)]))
			continue
		}
		c.Preds = append(c.Preds, NumPred(rng.Intn(2), ops[rng.Intn(len(ops))], consts[rng.Intn(len(consts))]))
	}
	return c
}

// TestSummaryDisjointMatchesConcatenation: deciding a disjunct pair from
// the two summaries agrees with summarizing the concatenated conjunction,
// the test MergeWindows' regroup guard makes for every pair it checks.
func TestSummaryDisjointMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	disjoint := 0
	for i := 0; i < 50000; i++ {
		a, b := edgeConj(rng), edgeConj(rng)
		want := Conjunction{Preds: append(append([]Predicate(nil), a.Preds...), b.Preds...)}.Unsatisfiable()
		if got := a.summarize().disjoint(b.summarize()); got != want {
			t.Fatalf("disjoint(%v, %v) = %v, concatenation unsatisfiable = %v", a, b, got, want)
		}
		if want {
			disjoint++
		}
	}
	if disjoint < 10000 || disjoint > 40000 {
		t.Fatalf("%d of 50000 pairs disjoint: the draw does not exercise both outcomes", disjoint)
	}
}
