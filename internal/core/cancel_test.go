package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// cancelTrainer wraps a trainer and invokes a hook before every Train call,
// so tests can cancel a context from inside a running mine and count exactly
// how much work happened afterwards.
type cancelTrainer struct {
	inner regress.Trainer
	calls atomic.Int64
	hook  func(call int64)
}

func (c *cancelTrainer) Train(x [][]float64, y []float64) (regress.Model, error) {
	n := c.calls.Add(1)
	if c.hook != nil {
		c.hook(n)
	}
	return c.inner.Train(x, y)
}

func (c *cancelTrainer) Name() string { return c.inner.Name() }

// electricityMine builds a large Electricity relation and a tight-bias
// configuration whose mine expands many conditions — enough queue iterations
// that a mid-flight cancel is observable.
func electricityMine(t *testing.T, rows int) (*dataset.Relation, DiscoverConfig) {
	t.Helper()
	rel := dataset.GenerateElectricity(dataset.ElectricityConfig{Rows: rows, Noise: 0.05, Seed: 3})
	preds := predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{Kind: predicate.Binary})
	return rel, DiscoverConfig{
		XAttrs:  []int{4, 5, 6}, // Sub1..Sub3
		YAttr:   1,              // GlobalActivePower
		RhoM:    0.02,           // below the noise floor: forces deep refinement
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}
}

// TestDiscoverCancelMidMine is the acceptance-criteria test: cancel a
// running discovery over a large Electricity relation from inside the
// training loop and require (a) an error matching both ErrCanceled and
// context.Canceled, and (b) at most one condition-queue iteration (hence at
// most one Train call) after the cancellation.
func TestDiscoverCancelMidMine(t *testing.T) {
	rel, cfg := electricityMine(t, 8000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 5
	tr := &cancelTrainer{inner: regress.LinearTrainer{}, hook: func(n int64) {
		if n == cancelAt {
			cancel()
		}
	}}
	cfg.Trainer = tr

	res, err := Discover(ctx, rel, WithConfig(cfg))
	if err == nil {
		t.Fatalf("Discover finished (%d rules) before the cancel took effect; grow the relation",
			res.Rules.NumRules())
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false; err = %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
	// The cancel fires inside Train call #cancelAt; the engine may finish
	// that queue iteration but must stop at the next pop, so no further
	// Train calls can happen.
	if got := tr.calls.Load(); got > cancelAt+1 {
		t.Errorf("trainer ran %d times; want ≤ %d (one queue iteration after cancel)", got, cancelAt+1)
	}
}

// TestDiscoverDeadline: an already-expired deadline stops the mine at the
// first queue pop and reports DeadlineExceeded through ErrCanceled.
func TestDiscoverDeadline(t *testing.T) {
	rel, cfg := electricityMine(t, 2000)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Discover(ctx, rel, WithConfig(cfg))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestDiscoverPreCanceled: a context canceled before the call never reaches
// a Train.
func TestDiscoverPreCanceled(t *testing.T) {
	rel, cfg := electricityMine(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := &cancelTrainer{inner: regress.LinearTrainer{}}
	cfg.Trainer = tr
	if _, err := Discover(ctx, rel, WithConfig(cfg)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr.calls.Load() != 0 {
		t.Errorf("trainer ran %d times under a pre-canceled context", tr.calls.Load())
	}
}

// TestParallelCancelNoGoroutineLeak cancels a several-worker mine
// mid-flight and verifies both the prompt canceled error and that every
// worker has exited.
func TestParallelCancelNoGoroutineLeak(t *testing.T) {
	rel, cfg := electricityMine(t, 8000)
	cfg.Workers = 4
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelTrainer{inner: regress.LinearTrainer{}, hook: func(n int64) {
		if n == 8 {
			cancel()
		}
	}}
	cfg.Trainer = tr

	_, err := Discover(ctx, rel, WithConfig(cfg))
	if err == nil {
		t.Fatal("parallel mine finished before the cancel took effect; grow the relation")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	requireGoroutineBaseline(t, before)
}

// requireGoroutineBaseline fails the test unless the goroutine count comes
// back to before. Every worker is joined before Discover returns, so only
// unrelated runtime goroutines that may come and go are tolerated.
func requireGoroutineBaseline(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelCompletesUncanceled: several ctx-aware workers still
// terminate normally and cover the data when never canceled.
func TestParallelCompletesUncanceled(t *testing.T) {
	rel, cfg := electricityMine(t, 1500)
	cfg.RhoM = 0.2
	cfg.Workers = 4
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if cov := res.Rules.Coverage(rel); cov != 1 {
		t.Errorf("coverage = %v", cov)
	}
}

// TestCompactCancel: a pre-canceled context stops Algorithm 2 before any
// pivot is processed.
func TestCompactCancel(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CompactCtx(ctx, res.Rules, CompactOptions{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestDiscoverTelemetryMatchesStats: the registry's counters must agree with
// the engine's own statistics.
func TestDiscoverTelemetryMatchesStats(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	cfg := discoverCfg(rel, 0.5)
	reg := telemetry.New()
	cfg.Telemetry = reg
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricModelsTrained]; got != int64(res.Stats.ModelsTrained) {
		t.Errorf("models_trained = %d, stats say %d", got, res.Stats.ModelsTrained)
	}
	if got := snap.Counters[telemetry.MetricModelsShared]; got != int64(res.Stats.ShareHits) {
		t.Errorf("models_shared = %d, stats say %d", got, res.Stats.ShareHits)
	}
	if got := snap.Counters[telemetry.MetricConditionsExpanded]; got != int64(res.Stats.NodesExpanded) {
		t.Errorf("conditions_expanded = %d, stats say %d", got, res.Stats.NodesExpanded)
	}
	if d := snap.Durations[telemetry.MetricTrainTime]; d.Count != int64(res.Stats.ModelsTrained) {
		t.Errorf("train_time count = %d, want %d", d.Count, res.Stats.ModelsTrained)
	}

	// Prediction-index counters.
	res.Rules.SetTelemetry(reg)
	for _, tp := range rel.Tuples[:50] {
		res.Rules.Predict(tp)
	}
	if got := reg.Snapshot().Counters[telemetry.MetricIndexLookups]; got != 50 {
		t.Errorf("index_lookups = %d, want 50", got)
	}
}
