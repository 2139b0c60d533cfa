package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
)

func TestMaintainSatisfiedTuplesNoChange(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 1)
	cfg := discoverCfg(rel, 0.5)
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	before := res.Rules.NumRules()

	// New tuples drawn from the same regimes (inside the discovered
	// condition windows, within bias).
	start := rel.Len()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		x := 150 * rng.Float64()
		var y float64
		switch {
		case x < 50:
			y = 2*x + 1
		case x < 100:
			y = -3*x + 500
		default:
			y = 2*x + 31
		}
		rel.MustAppend(lineTuple(x, y+0.1*(2*rng.Float64()-1), "t"))
	}
	var newIdx []int
	for i := start; i < rel.Len(); i++ {
		newIdx = append(newIdx, i)
	}
	out, st, err := Maintain(context.Background(), rel, res.Rules, newIdx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rediscovered > 5 {
		t.Errorf("in-regime tuples triggered %d rediscoveries", st.Rediscovered)
	}
	if out.NumRules() > before+st.NewRules {
		t.Errorf("rules = %d, want ≤ %d", out.NumRules(), before+st.NewRules)
	}
	if !out.Holds(rel) {
		t.Error("maintained rules violated")
	}
}

func TestMaintainWidensWithinRhoM(t *testing.T) {
	rel := piecewiseRelation(400, 0.1, 3)
	cfg := discoverCfg(rel, 0.5)
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// A covered tuple slightly beyond the learned ρ but within ρ_M.
	probe := lineTuple(10, 2*10+1+0.4, "t")
	rel.MustAppend(probe)
	rhoBefore := make([]float64, len(res.Rules.Rules))
	for i := range res.Rules.Rules {
		rhoBefore[i] = res.Rules.Rules[i].Rho
	}
	out, st, err := Maintain(context.Background(), rel, res.Rules, []int{rel.Len() - 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The input set is untouched (Maintain copies).
	for i := range res.Rules.Rules {
		if res.Rules.Rules[i].Rho != rhoBefore[i] {
			t.Error("Maintain mutated the input rule set")
		}
	}
	if st.Widened != 1 || st.Rediscovered != 0 {
		t.Errorf("stats = %+v, want one widening", st)
	}
	if !out.Holds(rel) {
		t.Error("widened set violated")
	}
	_ = out
}

func TestMaintainDiscoversNewRegime(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 4)
	cfg := discoverCfg(rel, 0.5)
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	before := res.Rules.NumRules()
	// A brand-new regime far outside every window: x ∈ [200, 250], y = 7x.
	start := rel.Len()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		x := 200 + 50*float64(i)/60
		rel.MustAppend(lineTuple(x, 7*x+0.1*(2*rng.Float64()-1), "t"))
	}
	var newIdx []int
	for i := start; i < rel.Len(); i++ {
		newIdx = append(newIdx, i)
	}
	// Regenerate predicates over the extended domain for the retrain run.
	cfg2 := discoverCfg(rel, 0.5)
	out, st, err := Maintain(context.Background(), rel, res.Rules, newIdx, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewRules == 0 {
		t.Fatalf("new regime produced no rules: %+v", st)
	}
	if out.NumRules() <= before {
		t.Error("rule count did not grow for a new regime")
	}
	// The new regime is now covered and predicted well.
	pred, ok := out.Predict(lineTuple(225, 0, "t"))
	if !ok {
		t.Fatal("new regime not covered after maintenance")
	}
	if absDiff(pred, 7*225) > 1 {
		t.Errorf("new-regime prediction %v, want ≈ %v", pred, 7*225)
	}
}

func TestMaintainSharesSeedModels(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 6)
	cfg := discoverCfg(rel, 0.5)
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// New window whose relation is a translation of regime A (slope 2):
	// y = 2x + 100 over x ∈ [200, 240].
	start := rel.Len()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		x := 200 + 40*float64(i)/60
		rel.MustAppend(lineTuple(x, 2*x+100+0.1*(2*rng.Float64()-1), "t"))
	}
	var newIdx []int
	for i := start; i < rel.Len(); i++ {
		newIdx = append(newIdx, i)
	}
	cfg2 := discoverCfg(rel, 0.5)
	_, st, err := Maintain(context.Background(), rel, res.Rules, newIdx, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Discover.ShareHits == 0 {
		t.Errorf("translated regime did not share a seed model: %+v", st)
	}
	if st.Discover.ModelsTrained > st.Discover.ShareHits {
		t.Errorf("maintenance trained more than it shared: %+v", st.Discover)
	}
}

func TestMaintainNullTargetSkipped(t *testing.T) {
	rel := piecewiseRelation(200, 0.2, 8)
	cfg := discoverCfg(rel, 0.5)
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rel.MustAppend(dataset.Tuple{dataset.Num(10), dataset.Null(), dataset.Str("t")})
	_, st, err := Maintain(context.Background(), rel, res.Rules, []int{rel.Len() - 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Satisfied+st.Widened+st.Rediscovered != 0 {
		t.Errorf("null-target tuple was classified: %+v", st)
	}
}

// TestMaintainNoTrainer: Maintain passes its configuration to discovery
// without the options defaulting, so a nil trainer reaches ErrNoTrainer once
// new tuples need rules.
func TestMaintainNoTrainer(t *testing.T) {
	rel := piecewiseRelation(200, 0.2, 9)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	start := rel.Len()
	for i := 0; i < 20; i++ {
		x := 200 + float64(i)
		rel.MustAppend(lineTuple(x, 7*x, "t"))
	}
	var newIdx []int
	for i := start; i < rel.Len(); i++ {
		newIdx = append(newIdx, i)
	}
	cfg := discoverCfg(rel, 0.5)
	cfg.Trainer = nil
	if _, _, err := Maintain(context.Background(), rel, res.Rules, newIdx, cfg); !errors.Is(err, ErrNoTrainer) {
		t.Fatalf("nil trainer err = %v, want ErrNoTrainer", err)
	}
}
