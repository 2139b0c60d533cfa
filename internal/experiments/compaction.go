package experiments

import (
	"context"
	"math/rand"
	"time"

	"github.com/crrlab/crr/internal/baseline"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/eval"
	"github.com/crrlab/crr/internal/impute"
	"github.com/crrlab/crr/internal/regress"
)

// familyRoster is the F1/F2/F3 sweep used in the compaction experiments.
func familyRoster() []struct {
	Tag     string
	Trainer regress.Trainer
} {
	return []struct {
		Tag     string
		Trainer regress.Trainer
	}{
		{"F1", regress.LinearTrainer{}},
		{"F2", regress.LinearTrainer{Ridge: 1}},
		{"F3", fastMLP(3)},
	}
}

// Fig9RuleCompaction reproduces Figure 9: the number of CRRs from a
// regression tree (green bars), from the tree followed by Algorithm 2
// compaction (purple bars), and from CRR searching (Algorithm 1) directly —
// for F1/F2/F3 leaf models on BirdMap and Abalone. The Rules field carries
// the bar height.
func Fig9RuleCompaction(ctx context.Context, scale float64) ([]Row, error) {
	var rows []Row
	for _, spec := range []DatasetSpec{BirdMapSpec(), AbaloneSpec()} {
		rel := spec.Gen(scaled(3000, scale, 600))
		train, _ := splitInterleaved(rel, 5)
		for _, fam := range familyRoster() {
			tree := &baseline.RegTree{RhoM: spec.RhoM, Trainer: fam.Trainer, SplitAttrs: spec.CondAttrs}
			learn := eval.Timed(func() { _ = tree.Fit(train, spec.XAttrs, spec.YAttr) })
			rows = append(rows, Row{
				Experiment: "fig9", Dataset: spec.Name,
				Method: "RegTree-" + fam.Tag, Param: "family", Learn: learn,
				Rules: tree.NumRules(),
			})

			leafRules := tree.ToRuleSet(train)
			var compacted *core.RuleSet
			var err error
			compactTime := eval.Timed(func() {
				compacted, _, err = core.CompactCtx(ctx, leafRules, core.CompactOptions{ModelTol: spec.CompactTol})
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{
				Experiment: "fig9", Dataset: spec.Name,
				Method: "RegTree+Compact-" + fam.Tag, Param: "family", Learn: learn + compactTime,
				Rules: compacted.NumRules(),
			})

			// "CRR searching" is Algorithm 1 alone, without compaction.
			crr := crrFor(spec)
			crr.Trainer = fam.Trainer
			crr.Compact = false
			crrLearn := eval.Timed(func() { _ = crr.Fit(train, spec.XAttrs, spec.YAttr) })
			rows = append(rows, Row{
				Experiment: "fig9", Dataset: spec.Name,
				Method: "CRRSearch-" + fam.Tag, Param: "family", Learn: crrLearn,
				Rules: crr.NumRules(),
			})
		}
	}
	return rows, nil
}

// Fig10Imputation reproduces Figure 10: missing-data imputation RMSE and
// time using regression-tree rules with and without compaction (and CRR
// searching for reference), at 10% missing cells, on BirdMap and Abalone.
// Compaction must keep RMSE essentially unchanged while reducing imputation
// time (fewer rules to locate).
func Fig10Imputation(ctx context.Context, scale float64) ([]Row, error) {
	var rows []Row
	for _, spec := range []DatasetSpec{BirdMapSpec(), AbaloneSpec()} {
		original := spec.Gen(scaled(3000, scale, 600))
		masked := original.Clone()
		maskedRows := masked.MaskMissing(spec.YAttr, 0.10, rand.New(rand.NewSource(21)))

		for _, fam := range familyRoster() {
			tree := &baseline.RegTree{RhoM: spec.RhoM, Trainer: fam.Trainer, SplitAttrs: spec.CondAttrs}
			if err := tree.Fit(masked, spec.XAttrs, spec.YAttr); err != nil {
				return nil, err
			}
			leafRules := tree.ToRuleSet(masked)
			compacted, _, err := core.CompactCtx(ctx, leafRules, core.CompactOptions{ModelTol: spec.CompactTol})
			if err != nil {
				return nil, err
			}

			for _, variant := range []struct {
				name  string
				rules *core.RuleSet
			}{
				{"RegTree-" + fam.Tag, leafRules},
				{"RegTree+Compact-" + fam.Tag, compacted},
			} {
				rmse, st := imputeRepeated(masked, original, spec.YAttr, maskedRows, variant.rules)
				rows = append(rows, Row{
					Experiment: "fig10", Dataset: spec.Name,
					Method: variant.name, Param: "impute",
					Eval: st, RMSE: rmse, Rules: variant.rules.NumRules(),
				})
			}

			crr := crrFor(spec)
			crr.Trainer = fam.Trainer
			crr.Compact = false
			if err := crr.Fit(masked, spec.XAttrs, spec.YAttr); err != nil {
				return nil, err
			}
			rmse, st := imputeRepeated(masked, original, spec.YAttr, maskedRows, crr.Rules())
			rows = append(rows, Row{
				Experiment: "fig10", Dataset: spec.Name,
				Method: "CRRSearch-" + fam.Tag, Param: "impute",
				Eval: st, RMSE: rmse, Rules: crr.NumRules(),
			})
		}
	}
	return rows, nil
}

// imputeRepeated measures imputation accuracy and averages the imputation
// time over a few repetitions (single runs are too fast to time stably).
func imputeRepeated(masked, original *dataset.Relation, col int, rows []int, rules *core.RuleSet) (float64, time.Duration) {
	const reps = 5
	var rmse float64
	var total time.Duration
	p := impute.RuleSetPredictor{Rules: rules, UseFallback: true}
	for r := 0; r < reps; r++ {
		var st impute.Stats
		rmse, st, _ = impute.Evaluate(masked, original, col, rows, p)
		total += st.Duration
	}
	return rmse, total / reps
}
