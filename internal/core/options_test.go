package core

import (
	"context"
	"errors"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
)

// TestDiscoverAutoPredicates: with Preds left nil the engine generates the
// paper-default space (X attributes + categoricals) and still covers the
// relation.
func TestDiscoverAutoPredicates(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 1)
	res, err := Discover(context.Background(), rel,
		WithConfig(DiscoverConfig{XAttrs: []int{0}, YAttr: 1, RhoM: 0.5}))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if cov := res.Rules.Coverage(rel); cov != 1 {
		t.Errorf("coverage = %v, want 1", cov)
	}
	if res.Rules.NumRules() == 0 {
		t.Error("no rules mined")
	}
}

// TestDiscoverDefaults: omitting trainer and bias falls back to OLS and
// DefaultMaxBias rather than erroring.
func TestDiscoverDefaults(t *testing.T) {
	rel := piecewiseRelation(400, 0.1, 1)
	res, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{XAttrs: []int{0}, YAttr: 1}))
	if err != nil {
		t.Fatalf("Discover with defaults: %v", err)
	}
	for _, r := range res.Rules.Rules {
		if r.Rho > DefaultMaxBias {
			t.Errorf("rule bias %v exceeds DefaultMaxBias", r.Rho)
		}
	}
}

func TestDiscoverEmptyRelationErr(t *testing.T) {
	rel := piecewiseRelation(100, 0.1, 1)
	empty := &dataset.Relation{Schema: rel.Schema}
	if _, err := Discover(context.Background(), empty, WithConfig(DiscoverConfig{XAttrs: []int{0}, YAttr: 1})); !errors.Is(err, ErrEmptyRelation) {
		t.Fatalf("err = %v, want ErrEmptyRelation", err)
	}
}

func TestDiscoverExplicitEmptyPredicates(t *testing.T) {
	rel := piecewiseRelation(100, 0.1, 1)
	_, err := Discover(context.Background(), rel,
		WithConfig(DiscoverConfig{XAttrs: []int{0}, YAttr: 1, Preds: []predicate.Predicate{}}))
	if !errors.Is(err, ErrNoPredicates) {
		t.Fatalf("err = %v, want ErrNoPredicates", err)
	}
}

func TestDiscoverValidationSentinels(t *testing.T) {
	rel := piecewiseRelation(100, 0.1, 1)
	if _, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{XAttrs: []int{1}, YAttr: 1})); !errors.Is(err, ErrTrivialTarget) {
		t.Errorf("Y ∈ X: err = %v, want ErrTrivialTarget", err)
	}
	preds := predicate.Generate(rel, []int{1}, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 4})
	if _, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{XAttrs: []int{0}, YAttr: 1, Preds: preds})); !errors.Is(err, ErrPredicateOnTarget) {
		t.Errorf("pred on Y: err = %v, want ErrPredicateOnTarget", err)
	}
}

// TestValidateNormalizes: Validate fills defaults in place.
func TestValidateNormalizes(t *testing.T) {
	cfg := DiscoverConfig{XAttrs: []int{0}, YAttr: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.Trainer == nil {
		t.Error("nil Trainer not defaulted")
	}
	if cfg.RhoM != DefaultMaxBias {
		t.Errorf("RhoM = %v, want DefaultMaxBias", cfg.RhoM)
	}
}
