package core

// Micro-benchmarks for the core machinery, complementing the paper-artifact
// benchmarks at the repository root: discovery (sequential vs parallel),
// compaction, and indexed prediction against the linear-scan reference.

import (
	"context"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/regress"
)

func benchRelation(b *testing.B, n int) *dataset.Relation {
	b.Helper()
	return piecewiseRelation(n, 0.2, 42)
}

func BenchmarkDiscoverSequential(b *testing.B) {
	rel := benchRelation(b, 4000)
	cfg := discoverCfg(rel, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), rel, WithConfig(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverParallel4(b *testing.B) {
	rel := benchRelation(b, 4000)
	cfg := discoverCfg(rel, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), rel, WithConfig(cfg), WithWorkers(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverFullPass is the before side of the hot-path comparison:
// the same sequential mine with the sufficient-statistics fast path disabled,
// so every Line-13 fit re-passes the design matrix. The gap to
// BenchmarkDiscoverSequential is the Gram path's contribution alone.
func BenchmarkDiscoverFullPass(b *testing.B) {
	rel := benchRelation(b, 4000)
	cfg := discoverCfg(rel, 0.5)
	cfg.Trainer = regress.FullPass{T: regress.LinearTrainer{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), rel, WithConfig(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverNoSharing(b *testing.B) {
	rel := benchRelation(b, 4000)
	cfg := discoverCfg(rel, 0.5)
	cfg.DisableSharing = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), rel, WithConfig(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompact(b *testing.B) {
	rel := benchRelation(b, 4000)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compact(res.Rules)
	}
}

func BenchmarkPredictIndexed(b *testing.B) {
	rel := benchRelation(b, 4000)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		b.Fatal(err)
	}
	rules := res.Rules
	rules.Predict(rel.Tuples[0]) // build the index outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules.Predict(rel.Tuples[i%rel.Len()])
	}
}

func BenchmarkPredictLinearScan(b *testing.B) {
	rel := benchRelation(b, 4000)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		b.Fatal(err)
	}
	rules := res.Rules
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictLinearScan(rules, rel.Tuples[i%rel.Len()])
	}
}

func BenchmarkPrune(b *testing.B) {
	rel := overRefinedRelation(2000, 0.3, 1)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Prune(rel, res.Rules, PruneOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
