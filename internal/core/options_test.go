package core

import (
	"context"
	"errors"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// TestDiscoverAutoPredicates: with no WithPredicates option the engine
// generates the paper-default space (X attributes + categoricals) and still
// covers the relation.
func TestDiscoverAutoPredicates(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 1)
	res, err := Discover(context.Background(), rel,
		WithSignature([]int{0}, 1),
		WithMaxBias(0.5),
	)
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
	res, err := Discover(context.Background(), rel, WithSignature([]int{0}, 1))
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
	if _, err := Discover(context.Background(), empty, WithSignature([]int{0}, 1)); !errors.Is(err, ErrEmptyRelation) {
		t.Fatalf("err = %v, want ErrEmptyRelation", err)
	}
}

func TestDiscoverExplicitEmptyPredicates(t *testing.T) {
	rel := piecewiseRelation(100, 0.1, 1)
	_, err := Discover(context.Background(), rel,
		WithSignature([]int{0}, 1),
		WithPredicates([]predicate.Predicate{}),
	)
	if !errors.Is(err, ErrNoPredicates) {
		t.Fatalf("err = %v, want ErrNoPredicates", err)
	}
}

func TestDiscoverValidationSentinels(t *testing.T) {
	rel := piecewiseRelation(100, 0.1, 1)
	if _, err := Discover(context.Background(), rel, WithSignature([]int{1}, 1)); !errors.Is(err, ErrTrivialTarget) {
		t.Errorf("Y ∈ X: err = %v, want ErrTrivialTarget", err)
	}
	preds := predicate.Generate(rel, []int{1}, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 4})
	if _, err := Discover(context.Background(), rel, WithSignature([]int{0}, 1), WithPredicates(preds)); !errors.Is(err, ErrPredicateOnTarget) {
		t.Errorf("pred on Y: err = %v, want ErrPredicateOnTarget", err)
	}
}

// TestOptionsComposition: field options layered over WithConfig override
// just their field.
func TestOptionsComposition(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 1)
	base := discoverCfg(rel, 0.1)
	reg := telemetry.New()
	res, err := Discover(context.Background(), rel,
		WithConfig(base),
		WithMaxBias(0.5),
		WithTrainer(regress.LinearTrainer{}),
		WithWorkers(1),
		WithTelemetry(reg),
		WithSeed(7),
	)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	// The WithMaxBias(0.5) layered over the 0.1 base config must govern the
	// mine: the result must match a direct run at ρ_M = 0.5.
	direct, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != direct.Stats {
		t.Errorf("layered options mined %+v, direct ρ_M=0.5 config %+v", res.Stats, direct.Stats)
	}
	if reg.Snapshot().Counters[telemetry.MetricModelsTrained] == 0 {
		t.Error("WithTelemetry registry saw no training")
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
