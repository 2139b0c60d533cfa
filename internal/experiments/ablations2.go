package experiments

import (
	"context"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/eval"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// AblationFuse measures eager shared-rule fusion (DiscoverConfig.FuseShared):
// rule counts and evaluation time with the fusion applied during search
// versus rules emitted per part. Predictions are identical by construction;
// the fused set should be much smaller and no slower to evaluate.
func AblationFuse(ctx context.Context, scale float64) ([]Row, error) {
	var rows []Row
	for _, spec := range []DatasetSpec{BirdMapSpec(), ElectricitySpec()} {
		rel := spec.Gen(scaled(4000, scale, 800))
		train, test := splitInterleaved(rel, 5)
		for _, variant := range []struct {
			name string
			fuse bool
		}{
			{"fuse-on", true},
			{"fuse-off", false},
		} {
			m := crrFor(spec)
			m.DisplayName = variant.name
			m.FuseShared = variant.fuse
			m.Compact = false // isolate the in-search fusion effect
			row, err := runMethod(ctx, "ablation-fuse", spec.Name, m, train, test,
				spec.XAttrs, spec.YAttr, "variant", 0)
			if err != nil {
				return nil, err
			}
			row.Param = variant.name
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AblationPrune measures the §VII post-pruning on an over-refined discovery:
// ρ_M below the noise floor fragments a dataset into many windows; pruning
// merges neighbors whose joint refit stays within that same ρ_M.
func AblationPrune(ctx context.Context, scale float64) ([]Row, error) {
	var rows []Row
	for _, spec := range []DatasetSpec{AirQualitySpec(), AbaloneSpec()} {
		rel := spec.Gen(scaled(3000, scale, 600))
		train, test := splitInterleaved(rel, 5)
		// One ColumnSet serves predicate generation, discovery and pruning.
		cols := dataset.NewColumnSet(train)
		preds := predicate.GenerateColumns(cols, spec.CondAttrs, predicate.GeneratorConfig{
			ExpertCuts: spec.ExpertCuts,
		})
		// Deliberately over-refine: a quarter of the dataset's ρ_M.
		rhoM := spec.RhoM / 4
		res, err := core.DiscoverColumns(ctx, cols, core.WithConfig(core.DiscoverConfig{
			XAttrs:  spec.XAttrs,
			YAttr:   spec.YAttr,
			RhoM:    rhoM,
			Preds:   preds,
			Trainer: regress.LinearTrainer{},
		}))
		if err != nil {
			return nil, err
		}
		rmse0, eval0 := eval.Score(res.Rules, test, spec.YAttr, res.Rules.Fallback)
		rows = append(rows, Row{
			Experiment: "ablation-prune", Dataset: spec.Name,
			Method: "unpruned", Param: "variant",
			Eval: eval0, RMSE: rmse0, Rules: res.Rules.NumRules(),
		})
		var pruned *core.RuleSet
		pruneTime := eval.Timed(func() {
			var err2 error
			pruned, _, err2 = core.Prune(cols, res.Rules, core.PruneOptions{RhoM: rhoM})
			if err2 != nil {
				err = err2
			}
		})
		if err != nil {
			return nil, err
		}
		rmse1, eval1 := eval.Score(pruned, test, spec.YAttr, pruned.Fallback)
		rows = append(rows, Row{
			Experiment: "ablation-prune", Dataset: spec.Name,
			Method: "pruned", Param: "variant", Learn: pruneTime,
			Eval: eval1, RMSE: rmse1, Rules: pruned.NumRules(),
		})
	}
	return rows, nil
}
