package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// piecewiseRelation builds a two-regime dataset where regime A (x < 50) and
// regime B (x ≥ 100) follow the SAME slope with a constant offset — the
// sharing scenario — while the middle regime follows a different slope.
// Bounded noise keeps the max-bias criterion meaningful.
func piecewiseRelation(n int, noise float64, seed int64) *dataset.Relation {
	rng := rand.New(rand.NewSource(seed))
	s := dataset.MustSchema(
		dataset.Attribute{Name: "X", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Tag", Kind: dataset.Categorical},
	)
	r := dataset.NewRelation(s)
	for i := 0; i < n; i++ {
		x := 150 * float64(i) / float64(n)
		var y float64
		switch {
		case x < 50:
			y = 2*x + 1
		case x < 100:
			y = -3*x + 500
		default:
			y = 2*x + 31 // same slope as regime A, δ = 30
		}
		y += noise * (2*rng.Float64() - 1)
		r.MustAppend(dataset.Tuple{dataset.Num(x), dataset.Num(y), dataset.Str("t")})
	}
	return r
}

func discoverCfg(rel *dataset.Relation, rhoM float64) DiscoverConfig {
	preds := predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 32})
	return DiscoverConfig{
		XAttrs:  []int{0},
		YAttr:   1,
		RhoM:    rhoM,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}
}

func TestDiscoverCoversData(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if res.Rules.NumRules() == 0 {
		t.Fatal("no rules discovered")
	}
	if cov := res.Rules.Coverage(rel); cov != 1 {
		t.Errorf("coverage = %v, want 1 (Problem 1 requires Σ covers D)", cov)
	}
	if !res.Rules.Holds(rel) {
		t.Error("discovered rules violated on their own training data")
	}
}

func TestDiscoverSharesModels(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShareHits == 0 {
		t.Errorf("no share hits on a dataset with a repeated slope; stats = %+v", res.Stats)
	}
	// Every rule comes either from sharing or from an accepted fresh model,
	// so sharing implies fewer distinct models than rules.
	if res.Rules.NumModels() >= res.Rules.NumRules() {
		t.Errorf("sharing did not reduce distinct models: %d models for %d rules",
			res.Rules.NumModels(), res.Rules.NumRules())
	}
}

func TestDiscoverSharingAblation(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	cfg := discoverCfg(rel, 0.5)
	with, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableSharing = true
	without, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if without.Stats.ShareHits != 0 {
		t.Error("ablated run still shared")
	}
	if with.Stats.ModelsTrained > without.Stats.ModelsTrained {
		t.Errorf("sharing increased trained models: %d vs %d",
			with.Stats.ModelsTrained, without.Stats.ModelsTrained)
	}
	if cov := without.Rules.Coverage(rel); cov != 1 {
		t.Errorf("ablated coverage = %v", cov)
	}
}

func TestDiscoverShareBuiltinDelta(t *testing.T) {
	// The shared-regime rule must carry a y = δ builtin with δ ≈ 30.
	rel := piecewiseRelation(600, 0.1, 1)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.3)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rules.Rules {
		for _, c := range r.Cond.Conjs {
			if d := c.Builtin.YShift; d > 25 && d < 35 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no rule carries the expected y ≈ 30 builtin from sharing")
	}
}

func TestDiscoverRespectsRhoM(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 2)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules.Rules {
		if r.Rho > 0.5 && res.Stats.ForcedRules == 0 {
			t.Errorf("rule bias %v exceeds ρ_M without a forced acceptance", r.Rho)
		}
	}
}

func TestDiscoverValidation(t *testing.T) {
	rel := piecewiseRelation(50, 0.1, 3)
	cfg := discoverCfg(rel, 0.5)
	cfg.XAttrs = []int{1}
	if _, err := Discover(context.Background(), rel, WithConfig(cfg)); !errors.Is(err, ErrTrivialTarget) {
		t.Errorf("Y∈X err = %v (Reflexivity must reject)", err)
	}
	cfg = discoverCfg(rel, 0.5)
	cfg.Preds = append(cfg.Preds, predicate.NumPred(1, predicate.Gt, 0))
	if _, err := Discover(context.Background(), rel, WithConfig(cfg)); !errors.Is(err, ErrPredicateOnTarget) {
		t.Errorf("pred-on-Y err = %v", err)
	}
	cfg = discoverCfg(rel, 0.5)
	cfg.YAttr = 2 // categorical
	cfg.Preds = nil
	if _, err := Discover(context.Background(), rel, WithConfig(cfg)); !errors.Is(err, ErrNonNumericTarget) {
		t.Errorf("categorical target err = %v", err)
	}
}

func TestDiscoverEmptyRelation(t *testing.T) {
	rel := dataset.NewRelation(lineSchema())
	_, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{
		XAttrs: []int{0}, YAttr: 1, RhoM: 1, Trainer: regress.LinearTrainer{},
	}))
	if !errors.Is(err, ErrEmptyRelation) {
		t.Errorf("empty relation err = %v, want ErrEmptyRelation", err)
	}
}

func TestDiscoverAllNullTarget(t *testing.T) {
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(dataset.Tuple{dataset.Num(1), dataset.Null(), dataset.Str("a")})
	res, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{
		XAttrs: []int{0}, YAttr: 1, RhoM: 1, Trainer: regress.LinearTrainer{},
	}))
	if err != nil || res.Rules.NumRules() != 0 {
		t.Errorf("all-null target: %d rules, %v", res.Rules.NumRules(), err)
	}
}

func TestDiscoverSingleTuple(t *testing.T) {
	// The paper's edge case: the smallest data part learns its own model.
	rel := dataset.NewRelation(lineSchema())
	rel.MustAppend(lineTuple(3, 10, "a"))
	res, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{
		XAttrs: []int{0}, YAttr: 1, RhoM: 0.1, Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.NumRules() != 1 {
		t.Fatalf("rules = %d, want 1", res.Rules.NumRules())
	}
	if p, ok := res.Rules.Predict(lineTuple(3, 0, "a")); !ok || p < 9.9 || p > 10.1 {
		t.Errorf("single-tuple prediction = %v, %v", p, ok)
	}
}

func TestDiscoverCategoricalSplit(t *testing.T) {
	// Per-tag constant targets: the categorical fan must separate them.
	s := lineSchema()
	rel := dataset.NewRelation(s)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		tag := []string{"a", "b", "c"}[i%3]
		base := map[string]float64{"a": 10, "b": 50, "c": 90}[tag]
		rel.MustAppend(dataset.Tuple{
			dataset.Num(rng.Float64() * 100),
			dataset.Num(base + 0.2*(2*rng.Float64()-1)),
			dataset.Str(tag),
		})
	}
	preds := predicate.Generate(rel, []int{2}, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 8})
	res, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{
		XAttrs: []int{0}, YAttr: 1, RhoM: 0.5, Preds: preds, Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cov := res.Rules.Coverage(rel); cov != 1 {
		t.Errorf("coverage = %v", cov)
	}
	if rmse := res.Rules.RMSE(rel); rmse > 0.5 {
		t.Errorf("RMSE = %v, want < 0.5 after categorical split", rmse)
	}
}

func TestDiscoverFuseShared(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	cfg := discoverCfg(rel, 0.5)
	plain, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.FuseShared = true
	fused, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if fused.Rules.NumRules() >= plain.Rules.NumRules() {
		t.Errorf("FuseShared did not reduce rules: %d vs %d",
			fused.Rules.NumRules(), plain.Rules.NumRules())
	}
	// Predictions are identical tuple-by-tuple: fusion only reorganizes
	// which rule holds the conjunction.
	for _, tp := range rel.Tuples {
		p1, ok1 := plain.Rules.Predict(tp)
		p2, ok2 := fused.Rules.Predict(tp)
		if ok1 != ok2 || absDiff(p1, p2) > 1e-9 {
			t.Fatalf("FuseShared changed prediction: %v/%v vs %v/%v", p1, ok1, p2, ok2)
		}
	}
	if cov := fused.Rules.Coverage(rel); cov != 1 {
		t.Errorf("fused coverage = %v", cov)
	}
	if !fused.Rules.Holds(rel) {
		t.Error("fused rules violated on training data")
	}
}

func TestDiscoverOrderings(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 5)
	for _, ord := range []QueueOrder{Decrease, Increase, RandomOrder} {
		cfg := discoverCfg(rel, 0.5)
		cfg.Order = ord
		cfg.Seed = 11
		res, err := Discover(context.Background(), rel, WithConfig(cfg))
		if err != nil {
			t.Fatalf("order %v: %v", ord, err)
		}
		if cov := res.Rules.Coverage(rel); cov != 1 {
			t.Errorf("order %v coverage = %v", ord, cov)
		}
	}
}

func TestDiscoverDeterministic(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 6)
	cfg := discoverCfg(rel, 0.5)
	a, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rules.NumRules() != b.Rules.NumRules() || a.Stats != b.Stats {
		t.Errorf("non-deterministic discovery: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestDiscoverConstantRegime(t *testing.T) {
	// A plateau (constant Y) must be expressible — the "Latitude = 60.10"
	// rule; OLS fits a near-zero slope and the rule holds.
	s := lineSchema()
	rel := dataset.NewRelation(s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x := float64(i)
		y := 60.10 + 0.1*(2*rng.Float64()-1)
		rel.MustAppend(dataset.Tuple{dataset.Num(x), dataset.Num(y), dataset.Str("a")})
	}
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.NumRules() != 1 {
		t.Fatalf("plateau yielded %d rules, want 1", res.Rules.NumRules())
	}
	lin, ok := res.Rules.Rules[0].Model.(*regress.Linear)
	if !ok || !lin.IsConstant(0.01) {
		t.Errorf("plateau model not near-constant: %v", res.Rules.Rules[0].Model)
	}
}

func TestQueueOrderString(t *testing.T) {
	if Decrease.String() != "decrease" || Increase.String() != "increase" || RandomOrder.String() != "random" {
		t.Error("QueueOrder strings")
	}
	if QueueOrder(7).String() != "unknown" {
		t.Error("unknown order string")
	}
}

// splitProbe is a strategy that asks one substrate for the k best splits of
// each of its parts in turn, keeping the last result. With no parts it asks
// for those of the trainable rows.
type splitProbe struct {
	k      int
	parts  [][]int
	groups [][]SplitChild
}

func (*splitProbe) Name() string { return "split-probe" }

func (s *splitProbe) Induce(_ context.Context, sub *Substrate) (*DiscoverResult, error) {
	parts := s.parts
	if parts == nil {
		parts = [][]int{sub.TrainableRows()}
	}
	for _, rows := range parts {
		s.groups = sub.TopSplits(rows, s.k)
	}
	return sub.NewResult(), nil
}

// run discovers over rel with cfg and s as its strategy.
func (s *splitProbe) run(t *testing.T, rel *dataset.Relation, cfg DiscoverConfig) {
	t.Helper()
	cfg.Strategy = s
	if _, err := Discover(context.Background(), rel, WithConfig(cfg)); err != nil {
		t.Fatal(err)
	}
}

// TestTopSplitsEmptyPart: an empty part has no split, so TopSplits returns
// nil.
func TestTopSplitsEmptyPart(t *testing.T) {
	rel := piecewiseRelation(100, 0.2, 7)
	s := &splitProbe{k: 1, parts: [][]int{nil}}
	s.run(t, rel, discoverCfg(rel, 0.5))
	if s.groups != nil {
		t.Fatalf("TopSplits(nil) = %v, want nil", s.groups)
	}
}

// TestTopSplitsNonPositiveK: asking for fewer than one split returns nil,
// on a part that has candidate splits.
func TestTopSplitsNonPositiveK(t *testing.T) {
	rel := piecewiseRelation(100, 0.2, 7)
	for _, k := range []int{0, -1} {
		s := &splitProbe{k: k}
		s.run(t, rel, discoverCfg(rel, 0.5))
		if s.groups != nil {
			t.Fatalf("TopSplits(rows, %d) = %v, want nil", k, s.groups)
		}
	}
}

// TestTopSplitsTiedGains: with mirror-symmetric Y and two identical
// attributes, four cuts tie exactly on gain. TopSplits must rank them by
// attribute, then cut, and return the first k of that order for every k —
// all four when k exceeds the number of candidates.
func TestTopSplitsTiedGains(t *testing.T) {
	rel := dataset.NewRelation(dataset.MustSchema(
		dataset.Attribute{Name: "A", Kind: dataset.Numeric},
		dataset.Attribute{Name: "B", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
	))
	// Y over A = 1, 2, 3, 4 is 0, 1, 1, 0, two rows each and not in value
	// order. Small integers keep every sum exact, so the cuts at 1 and at 3
	// have bitwise-equal gains and the cut at 2 has none.
	for _, a := range []float64{3, 1, 4, 2, 2, 4, 1, 3} {
		y := 1.0
		if a == 1 || a == 4 {
			y = 0
		}
		rel.MustAppend(dataset.Tuple{dataset.Num(a), dataset.Num(a), dataset.Num(y)})
	}
	var preds []predicate.Predicate
	for _, attr := range []int{1, 0} {
		for _, c := range []float64{3, 2, 1} {
			preds = append(preds, predicate.NumPred(attr, predicate.Gt, c), predicate.NumPred(attr, predicate.Le, c))
		}
	}
	cfg := DiscoverConfig{XAttrs: []int{0}, YAttr: 2, RhoM: 0.1, Preds: preds, Trainer: regress.LinearTrainer{}}
	want := []struct {
		attr int
		cut  float64
	}{{0, 1}, {0, 3}, {1, 1}, {1, 3}}
	for k := 1; k <= 5; k++ {
		s := &splitProbe{k: k}
		s.run(t, rel, cfg)
		if n := min(k, len(want)); len(s.groups) != n {
			t.Fatalf("k=%d: %d groups, want %d", k, len(s.groups), n)
		}
		for i, g := range s.groups {
			w := want[i]
			le, gt := predicate.NumPred(w.attr, predicate.Le, w.cut), predicate.NumPred(w.attr, predicate.Gt, w.cut)
			if len(g) != 2 || g[0].Pred != le || g[1].Pred != gt {
				t.Fatalf("k=%d: group %d is %v, want {%v, %v}", k, i, g, le, gt)
			}
			if l := len(g[0].Rows); l != 2*int(w.cut) || l+len(g[1].Rows) != rel.Len() {
				t.Fatalf("k=%d: group %d splits %d | %d rows", k, i, l, len(g[1].Rows))
			}
		}
	}
}

// TestTopSplitsClearsBucketsOnEarlyStop: the numeric scorer's cut buckets
// are workspace scratch that must be all zero between calls. A part whose
// last row holds a null or NaN condition cell fills buckets before the
// scan stops; the clean part scored next on the same substrate must then
// get the groups a fresh substrate gives it. Even and odd rows step at
// different A, so leftover even-row sums would move the odd part's cuts.
func TestTopSplitsClearsBucketsOnEarlyStop(t *testing.T) {
	for _, gap := range []struct {
		name string
		cell dataset.Value
	}{{"null", dataset.Null()}, {"NaN", dataset.Num(math.NaN())}} {
		t.Run(gap.name, func(t *testing.T) {
			rel := dataset.NewRelation(dataset.MustSchema(
				dataset.Attribute{Name: "A", Kind: dataset.Numeric},
				dataset.Attribute{Name: "X", Kind: dataset.Numeric},
				dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
			))
			var dirty, clean []int
			for i := 0; i < 201; i++ {
				a, step := float64(i/2), 20.0
				if i%2 == 0 {
					step = 70
					dirty = append(dirty, i)
				} else {
					clean = append(clean, i)
				}
				y := 0.0
				if a > step {
					y = 10
				}
				cell := dataset.Num(a)
				if i == 200 {
					cell = gap.cell
				}
				rel.MustAppend(dataset.Tuple{cell, dataset.Num(float64(i % 7)), dataset.Num(y + float64(i%3))})
			}
			cfg := DiscoverConfig{
				XAttrs:  []int{1},
				YAttr:   2,
				RhoM:    0.1,
				Preds:   predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{}),
				Trainer: regress.LinearTrainer{},
			}
			probe := func(parts ...[]int) [][]SplitChild {
				s := &splitProbe{k: 5, parts: parts}
				s.run(t, rel, cfg)
				return s.groups
			}
			if g := probe(dirty); g != nil {
				t.Fatalf("the part with a %s cell splits on A: %v", gap.name, g)
			}
			want := probe(clean)
			if len(want) == 0 {
				t.Fatal("the clean part has no split")
			}
			if got := probe(dirty, clean); !reflect.DeepEqual(got, want) {
				cuts := func(groups [][]SplitChild) []string {
					var out []string
					for _, g := range groups {
						out = append(out, g[0].Pred.String())
					}
					return out
				}
				t.Fatalf("after the %s part the clean part splits at %v, on a fresh substrate at %v", gap.name, cuts(got), cuts(want))
			}
		})
	}
}
