package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// multiXRelation: Y depends on two features with regime-dependent
// coefficients switched by a third condition attribute —
// Y = 2·A + 3·B for T < 50, Y = −A + 0.5·B + 10 for T ≥ 50.
func multiXRelation(n int, noise float64, seed int64) *dataset.Relation {
	rng := rand.New(rand.NewSource(seed))
	s := dataset.MustSchema(
		dataset.Attribute{Name: "A", Kind: dataset.Numeric},
		dataset.Attribute{Name: "B", Kind: dataset.Numeric},
		dataset.Attribute{Name: "T", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
	)
	rel := dataset.NewRelation(s)
	for i := 0; i < n; i++ {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		tm := 100 * float64(i) / float64(n)
		var y float64
		if tm < 50 {
			y = 2*a + 3*b
		} else {
			y = -a + 0.5*b + 10
		}
		y += noise * (2*rng.Float64() - 1)
		rel.MustAppend(dataset.Tuple{dataset.Num(a), dataset.Num(b), dataset.Num(tm), dataset.Num(y)})
	}
	return rel
}

func TestDiscoverMultiFeature(t *testing.T) {
	rel := multiXRelation(800, 0.2, 1)
	preds := predicate.Generate(rel, []int{2}, predicate.GeneratorConfig{})
	res, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{
		XAttrs:  []int{0, 1}, // A, B
		YAttr:   3,
		RhoM:    0.5,
		Preds:   preds, // conditions over T only
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if cov := res.Rules.Coverage(rel); cov != 1 {
		t.Fatalf("coverage = %v", cov)
	}
	if !res.Rules.Holds(rel) {
		t.Fatal("multi-feature rules violated")
	}
	// Two regimes plus a handful of boundary slivers (finite-sample gain
	// noise can misplace the cut by a tuple or two).
	if res.Rules.NumRules() > 12 {
		t.Errorf("rules = %d, want a handful", res.Rules.NumRules())
	}
	if rmse := res.Rules.RMSE(rel); rmse > 0.3 {
		t.Errorf("RMSE = %v", rmse)
	}
	// The recovered coefficient structure matches the generator.
	found2x3 := false
	for _, r := range res.Rules.Rules {
		lin, ok := r.Model.(*regress.Linear)
		if !ok {
			continue
		}
		if absDiff(lin.W[1], 2) < 0.05 && absDiff(lin.W[2], 3) < 0.05 {
			found2x3 = true
		}
	}
	if !found2x3 {
		t.Error("regime-1 coefficients (2, 3) not recovered")
	}
}

func TestDiscoverMultiFeatureCompactionAndCodec(t *testing.T) {
	rel := multiXRelation(600, 0.2, 2)
	preds := predicate.Generate(rel, []int{2}, predicate.GeneratorConfig{})
	res, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{
		XAttrs: []int{0, 1}, YAttr: 3, RhoM: 0.5,
		Preds: preds, Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	compacted, _ := compactExact(t, res.Rules)
	d := CompareOn(rel, res.Rules, compacted, 1e-9)
	if !d.Equivalent() {
		t.Errorf("multi-feature compaction not equivalent: %+v", d)
	}
	// The prediction index anchors on XAttrs[0] = A, but conditions bound T
	// only: every conjunction must land in the overflow path and still work.
	for _, tp := range rel.Tuples[:50] {
		p1, ok1 := res.Rules.Predict(tp)
		p2, ok2 := predictLinearScan(res.Rules, tp)
		if ok1 != ok2 || p1 != p2 {
			t.Fatal("index diverged from linear scan on overflow-only conditions")
		}
	}
}
