package experiments

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/impute"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// TestFullPipelinePerDataset drives the complete system on every dataset
// stand-in: generate → discover (Algorithm 1) → compact (Algorithm 2) →
// persist/restore → impute, asserting the Problem 1 invariants at each step.
func TestFullPipelinePerDataset(t *testing.T) {
	specs := []DatasetSpec{
		BirdMapSpec(), AirQualitySpec(), ElectricitySpec(), TaxSpec(), AbaloneSpec(),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rel := spec.Gen(1200)
			preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
				ExpertCuts: spec.ExpertCuts,
			})
			res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
				XAttrs:  spec.XAttrs,
				YAttr:   spec.YAttr,
				RhoM:    spec.RhoM,
				Preds:   preds,
				Trainer: regress.LinearTrainer{},
			}))
			if err != nil {
				t.Fatalf("discover: %v", err)
			}
			if cov := res.Rules.Coverage(rel); cov != 1 {
				t.Fatalf("discovery coverage = %v", cov)
			}
			if !res.Rules.Holds(rel) {
				t.Fatal("discovered rules violated on training data")
			}

			compacted, _ := core.CompactOpts(res.Rules, core.CompactOptions{ModelTol: spec.CompactTol})
			if compacted.NumRules() > res.Rules.NumRules() {
				t.Error("compaction grew the rule set")
			}
			if cov := compacted.Coverage(rel); cov != 1 {
				t.Errorf("compacted coverage = %v", cov)
			}

			// Persist and restore; predictions must survive byte-for-byte.
			var buf bytes.Buffer
			if err := core.WriteRuleSet(&buf, compacted); err != nil {
				t.Fatalf("save: %v", err)
			}
			restored, err := core.ReadRuleSet(&buf)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			for _, tp := range rel.Tuples[:100] {
				p1, ok1 := compacted.Predict(tp)
				p2, ok2 := restored.Predict(tp)
				if ok1 != ok2 || math.Abs(p1-p2) > 1e-9 {
					t.Fatalf("persistence changed prediction: %v/%v vs %v/%v", p1, ok1, p2, ok2)
				}
			}

			// Imputation at 10% missing stays near the generator's noise.
			masked := rel.Clone()
			holes := masked.MaskMissing(spec.YAttr, 0.1, rand.New(rand.NewSource(9)))
			rmse, st, err := impute.Evaluate(masked, rel, spec.YAttr, holes,
				impute.RuleSetPredictor{Rules: restored, UseFallback: true})
			if err != nil {
				t.Fatalf("impute: %v", err)
			}
			if st.Imputed == 0 {
				t.Fatal("nothing imputed")
			}
			// Generous per-dataset sanity bound: 4× the ρ_M scale.
			if rmse > 4*spec.RhoM {
				t.Errorf("imputation RMSE %v above 4·ρ_M = %v", rmse, 4*spec.RhoM)
			}
		})
	}
}

// TestParallelMatchesSequentialQuality cross-checks four discovery workers
// (WithWorkers) against one on two dataset stand-ins.
func TestParallelMatchesSequentialQuality(t *testing.T) {
	for _, spec := range []DatasetSpec{ElectricitySpec(), TaxSpec()} {
		rel := spec.Gen(2000)
		preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{})
		cfg := core.DiscoverConfig{
			XAttrs: spec.XAttrs, YAttr: spec.YAttr, RhoM: spec.RhoM,
			Preds: preds, Trainer: regress.LinearTrainer{},
		}
		seq, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.Discover(context.Background(), rel, core.WithConfig(cfg), core.WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if cov := par.Rules.Coverage(rel); cov != 1 {
			t.Errorf("%s: parallel coverage %v", spec.Name, cov)
		}
		sr, pr := seq.Rules.RMSE(rel), par.Rules.RMSE(rel)
		if pr > 2*sr+0.1*spec.RhoM {
			t.Errorf("%s: parallel RMSE %v vs sequential %v", spec.Name, pr, sr)
		}
	}
}
