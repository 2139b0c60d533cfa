package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/regress"
)

// failingTrainer errors after a configurable number of successful fits,
// injecting mid-run training failures.
type failingTrainer struct {
	inner     regress.Trainer
	failAfter int
	calls     int
}

var errInjected = errors.New("injected training failure")

func (f *failingTrainer) Name() string { return "failing" }

func (f *failingTrainer) Train(x [][]float64, y []float64) (regress.Model, error) {
	f.calls++
	if f.calls > f.failAfter {
		return nil, errInjected
	}
	return f.inner.Train(x, y)
}

func TestDiscoverPropagatesTrainerError(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 31)
	cfg := discoverCfg(rel, 0.5)
	cfg.Trainer = &failingTrainer{inner: regress.LinearTrainer{}, failAfter: 0}
	_, err := Discover(context.Background(), rel, WithConfig(cfg))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if err != nil && !strings.Contains(err.Error(), "training on") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestDiscoverMidRunTrainerError(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 32)
	cfg := discoverCfg(rel, 0.5)
	cfg.Trainer = &failingTrainer{inner: regress.LinearTrainer{}, failAfter: 2}
	if _, err := Discover(context.Background(), rel, WithConfig(cfg)); !errors.Is(err, errInjected) {
		t.Fatalf("mid-run err = %v, want the injected failure", err)
	}
}

func TestDiscoverParallelPropagatesTrainerError(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 33)
	cfg := discoverCfg(rel, 0.5)
	// The failing trainer is stateful and accessed by several workers; the
	// calls counter races harmlessly for the purposes of this test, but use
	// failAfter 0 so every call fails deterministically.
	cfg.Trainer = &failingTrainer{inner: regress.LinearTrainer{}, failAfter: 0}
	if _, err := Discover(context.Background(), rel, WithConfig(cfg), WithWorkers(4)); !errors.Is(err, errInjected) {
		t.Fatalf("parallel err = %v, want the injected failure", err)
	}
}

func TestMaintainPropagatesTrainerError(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 34)
	cfg := discoverCfg(rel, 0.5)
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// A brand-new regime forces re-discovery, which now fails. Two tuples
	// with wildly different residuals are needed: a single tuple would share
	// trivially with any seed model via δ0 (zero residual spread).
	rel.MustAppend(lineTuple(500, 9999, "t"))
	rel.MustAppend(lineTuple(500.5, -9999, "t"))
	cfg.Trainer = &failingTrainer{inner: regress.LinearTrainer{}, failAfter: 0}
	_, _, err = Maintain(context.Background(), rel, res.Rules, []int{rel.Len() - 2, rel.Len() - 1}, cfg)
	if !errors.Is(err, errInjected) {
		t.Fatalf("maintain err = %v, want the injected failure", err)
	}
}

func TestPrunePropagatesTrainerError(t *testing.T) {
	rel := overRefinedRelation(600, 0.3, 35)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.1)))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Prune(rel, res.Rules, PruneOptions{
		Trainer: &failingTrainer{inner: regress.LinearTrainer{}, failAfter: 0},
	})
	if !errors.Is(err, errInjected) {
		t.Fatalf("prune err = %v, want the injected failure", err)
	}
}

func TestDiscoverTargetsPropagatesTrainerError(t *testing.T) {
	rel := piecewiseRelation(200, 0.2, 36)
	cfg := discoverCfg(rel, 0.5)
	cfg.Trainer = &failingTrainer{inner: regress.LinearTrainer{}, failAfter: 0}
	if _, err := DiscoverTargets(context.Background(), rel, []int{1}, cfg); !errors.Is(err, errInjected) {
		t.Fatalf("targets err = %v, want the injected failure", err)
	}
}
