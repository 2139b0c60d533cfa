package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/crrlab/crr/internal/regress"
)

// failingTrainer errors after a configurable number of successful fits,
// injecting mid-run training failures. Several workers may call it at once.
type failingTrainer struct {
	inner     regress.Trainer
	failAfter int64
	calls     atomic.Int64
}

var errInjected = errors.New("injected training failure")

func (f *failingTrainer) Name() string { return "failing" }

func (f *failingTrainer) Train(x [][]float64, y []float64) (regress.Model, error) {
	if f.calls.Add(1) > f.failAfter {
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
	cfg.Trainer = &failingTrainer{inner: regress.LinearTrainer{}, failAfter: 0}
	if _, err := Discover(context.Background(), rel, WithConfig(cfg), WithWorkers(4)); !errors.Is(err, errInjected) {
		t.Fatalf("parallel err = %v, want the injected failure", err)
	}
}

// TestDiscoverParallelMidRunTrainerError fails a fit while several workers
// are busy: the first error must win with peers in flight, the result must
// be nil, and every worker must exit.
func TestDiscoverParallelMidRunTrainerError(t *testing.T) {
	rel, cfg := electricityMine(t, 8000)
	cfg.Workers = 4
	cfg.Trainer = &failingTrainer{inner: regress.LinearTrainer{}, failAfter: 8}
	before := runtime.NumGoroutine()

	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if res != nil {
		t.Fatal("failed discovery returned a partial result")
	}
	requireGoroutineBaseline(t, before)
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
