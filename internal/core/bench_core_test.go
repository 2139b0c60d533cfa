package core

// Micro-benchmarks for the core machinery, complementing the paper-artifact
// benchmarks at the repository root: discovery (sequential vs parallel),
// compaction, both again on a dense predicate space, indexed prediction
// against the linear-scan reference, and columnar classification at the
// serving batch size.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
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

// denseCutsConfig is the discover-airquality pass shape of cmd/crrperf:
// 8,000 AirQuality rows, CO on Time, and the paper's default predicate space
// on Time (a cut at every distinct value, ~16k predicates) at ρ 1. Every node
// then scores thousands of cuts, which the Binary-32 spaces of the other
// discovery benchmarks never reach.
func denseCutsConfig() (*dataset.Relation, DiscoverConfig) {
	gen := dataset.DefaultAirQualityConfig()
	gen.Rows = 8000
	rel := dataset.GenerateAirQuality(gen)
	return rel, DiscoverConfig{
		XAttrs:  []int{0},
		YAttr:   1,
		RhoM:    1,
		Preds:   predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{}),
		Trainer: regress.LinearTrainer{},
	}
}

func BenchmarkDiscoverDenseCuts(b *testing.B) {
	rel, cfg := denseCutsConfig()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Discover(context.Background(), rel, WithConfig(cfg)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompactDenseCuts(b *testing.B) {
	rel, cfg := denseCutsConfig()
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CompactCtx(context.Background(), res.Rules, CompactOptions{}); err != nil {
			b.Fatal(err)
		}
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

// classifySet is one input of the 64k classification benchmarks: a
// compacted rule set and a 65,536-row batch of fresh rows from the
// generator it was mined on.
type classifySet struct {
	name  string
	rules *RuleSet
	cs    *dataset.ColumnSet
}

var (
	predictSink      []float64
	violationsSink   []Violation
	classifySetsOnce sync.Once
	classifySetsVal  []classifySet
	classifySetsErr  error
)

// classifySets mines the two rule sets once per process, each over the
// value range its batch draws from: Tax ~ Salary under State and
// MaritalStatus conditions at a bias bound just above the generator's noise
// (the refresh-classify-64k artifact: 4 rules over 24 categorical cells),
// and GlobalActivePower ~ Time under time windows (30 rules). Both batches
// are fresh draws, so a few dozen rows violate by noise alone.
func classifySets(b *testing.B) []classifySet {
	b.Helper()
	classifySetsOnce.Do(func() {
		const rows = 65536
		tax := dataset.GenerateTax(dataset.TaxConfig{Rows: 16384, Noise: 0.5, Seed: 4})
		elec := dataset.GenerateElectricity(dataset.ElectricityConfig{Rows: rows, Noise: 0.05, Seed: 3})
		for _, c := range []struct {
			name  string
			rel   *dataset.Relation
			conds []int
			pcfg  predicate.GeneratorConfig
			cfg   DiscoverConfig
			batch *dataset.Relation
		}{
			{"tax", tax, []int{1, 2}, predicate.GeneratorConfig{},
				DiscoverConfig{XAttrs: []int{0}, YAttr: 4, RhoM: 1},
				dataset.GenerateTax(dataset.TaxConfig{Rows: rows, Noise: 0.5, Seed: 5})},
			{"electricity", elec, []int{0}, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 64},
				DiscoverConfig{XAttrs: []int{0}, YAttr: 1, RhoM: 0.5},
				dataset.GenerateElectricity(dataset.ElectricityConfig{Rows: rows, Noise: 0.05, Seed: 5})},
		} {
			cfg := c.cfg
			cfg.Preds = predicate.Generate(c.rel, c.conds, c.pcfg)
			cfg.Trainer = regress.LinearTrainer{}
			res, err := Discover(context.Background(), c.rel, WithConfig(cfg))
			if err != nil {
				classifySetsErr = err
				return
			}
			rules, _ := Compact(res.Rules)
			classifySetsVal = append(classifySetsVal, classifySet{c.name, rules, dataset.NewColumnSet(c.batch)})
		}
	})
	if classifySetsErr != nil {
		b.Fatal(classifySetsErr)
	}
	return classifySetsVal
}

// BenchmarkPredictView64k: one columnar predict of a 65,536-row batch, the
// classification layer of a /v1/predict request at the serving batch size.
func BenchmarkPredictView64k(b *testing.B) {
	for _, c := range classifySets(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				predictSink, _ = c.rules.PredictView(c.cs.View())
			}
		})
	}
}

// BenchmarkViolationsColumns64k: one columnar check of the same batch, the
// classification layer of a /v1/check request.
func BenchmarkViolationsColumns64k(b *testing.B) {
	for _, c := range classifySets(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				violationsSink = ViolationsColumns(c.cs, c.rules)
			}
		})
	}
}
