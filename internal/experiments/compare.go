package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/eval"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// CompareRow is one before/after measurement of the discovery hot path on a
// dataset: the same sequential mine run with the sufficient-statistics fast
// path (the default) and with it disabled via regress.FullPass.
type CompareRow struct {
	Dataset string
	Rows    int
	// FastWall/FullWall are the discovery wall times with and without the
	// fast path.
	FastWall, FullWall time.Duration
	// Trained is the number of Line-13 fits (identical in both runs when
	// Identical holds); StatReuse counts how many of the fast run's fits the
	// Gram path served.
	Trained   int
	StatReuse int64
	// ScanWidth is the mean number of models per single-pass share scan.
	ScanWidth float64
	// RuleCount is the discovered rule count; Identical reports that both
	// runs produced structurally identical output (same rules, same order,
	// same conditions, weights within 1e-9) — the hot path's correctness
	// contract.
	RuleCount int
	Identical bool
}

// hotPathSpecs are the five synthetic evaluation datasets the comparison
// (and the byte-identity acceptance check) runs on.
func hotPathSpecs() []DatasetSpec {
	return []DatasetSpec{BirdMapSpec(), AirQualitySpec(), ElectricitySpec(), TaxSpec(), AbaloneSpec()}
}

// HotPathCompare runs the before/after comparison of the discovery hot path
// on the five evaluation datasets: the default trainer (Gram fast path,
// column cache, single-pass share scan all active) against the same trainer
// wrapped in regress.FullPass, which re-fits every part from its design
// matrix. Output equality is checked structurally with weights within 1e-9;
// the sequential engine is used so rule order is deterministic.
func HotPathCompare(ctx context.Context, scale float64) ([]CompareRow, error) {
	rows := make([]CompareRow, 0, 5)
	for _, spec := range hotPathSpecs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := scaled(4000, scale, 400)
		rel := spec.Gen(n)
		preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
			Kind: predicate.Binary, Size: 64,
		})
		cfg := core.DiscoverConfig{
			XAttrs:  spec.XAttrs,
			YAttr:   spec.YAttr,
			RhoM:    spec.RhoM,
			Preds:   preds,
			Trainer: regress.LinearTrainer{},
		}

		fastReg := telemetry.New()
		cfg.Telemetry = fastReg
		var fast *core.DiscoverResult
		var err error
		fastWall := eval.Timed(func() {
			fast, err = core.Discover(ctx, rel, core.WithConfig(cfg))
		})
		if err != nil {
			return nil, fmt.Errorf("compare %s (fast): %w", spec.Name, err)
		}

		cfg.Trainer = regress.FullPass{T: regress.LinearTrainer{}}
		cfg.Telemetry = nil
		var full *core.DiscoverResult
		fullWall := eval.Timed(func() {
			full, err = core.Discover(ctx, rel, core.WithConfig(cfg))
		})
		if err != nil {
			return nil, fmt.Errorf("compare %s (full): %w", spec.Name, err)
		}

		snap := fastReg.Snapshot()
		rows = append(rows, CompareRow{
			Dataset:   spec.Name,
			Rows:      rel.Len(),
			FastWall:  fastWall,
			FullWall:  fullWall,
			Trained:   fast.Stats.ModelsTrained,
			StatReuse: snap.Counters[telemetry.MetricStatReuse],
			ScanWidth: snap.Distributions[telemetry.MetricShareScanWidth].Mean(),
			RuleCount: fast.Rules.NumRules(),
			Identical: SameRules(fast.Rules, full.Rules, 1e-9),
		})
	}
	return rows, nil
}

// SameRules reports structural identity of two rule sets: same rule count
// and order, same conditions and bias, and model weights within tol. It is
// the acceptance check of the hot path — the fast paths must not change
// discovery output.
func SameRules(a, b *core.RuleSet, tol float64) bool {
	if a.NumRules() != b.NumRules() {
		return false
	}
	for i := range a.Rules {
		ra, rb := &a.Rules[i], &b.Rules[i]
		if ra.Cond.String() != rb.Cond.String() {
			return false
		}
		if d := ra.Rho - rb.Rho; d > tol || d < -tol {
			return false
		}
		if ra.Model == nil || rb.Model == nil || !ra.Model.Equal(rb.Model, tol) {
			return false
		}
	}
	return true
}

// RenderCompareRows writes the comparison as an aligned table with a
// speedup column, the output of crrbench -exp compare.
func RenderCompareRows(w io.Writer, rows []CompareRow) error {
	t := eval.NewTable("[compare] discovery hot path: sufficient statistics vs full pass",
		"dataset", "rows", "fast", "full-pass", "speedup", "trained", "stat-reuse", "scan-width", "#rules", "identical")
	for _, r := range rows {
		speedup := "n/a"
		if r.FastWall > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(r.FullWall)/float64(r.FastWall))
		}
		t.AddRowf(r.Dataset, r.Rows, r.FastWall, r.FullWall, speedup,
			r.Trained, r.StatReuse, fmt.Sprintf("%.1f", r.ScanWidth), r.RuleCount, r.Identical)
	}
	return t.Render(w)
}

// CompareHotPath adapts HotPathCompare to the experiment registry's row
// shape so `crrbench -exp compare` composes with -format csv like every
// other experiment: the fast run maps to method "CRR" and the full pass to
// "CRR-fullpass", with learn time carrying the discovery wall.
func CompareHotPath(ctx context.Context, scale float64) ([]Row, error) {
	cmp, err := HotPathCompare(ctx, scale)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, c := range cmp {
		rows = append(rows,
			Row{
				Experiment: "compare", Dataset: c.Dataset, Method: "CRR",
				Param: "rows", Value: float64(c.Rows),
				Learn: c.FastWall, Rules: c.RuleCount, Trained: c.Trained,
			},
			Row{
				Experiment: "compare", Dataset: c.Dataset, Method: "CRR-fullpass",
				Param: "rows", Value: float64(c.Rows),
				Learn: c.FullWall, Rules: c.RuleCount, Trained: c.Trained,
			})
		if !c.Identical {
			return nil, fmt.Errorf("compare %s: fast and full-pass output diverged", c.Dataset)
		}
	}
	return rows, nil
}
