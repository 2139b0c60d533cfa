// Package impute implements missing-value imputation driven by a CRR set or
// any baseline method — the downstream case study of §VI-E (Fig. 10).
package impute

import (
	"errors"
	"math"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/eval"
)

// Predictor is anything that proposes a value for a tuple: a *core.RuleSet,
// a baseline.Method, or a bespoke model.
type Predictor interface {
	Predict(t dataset.Tuple) (float64, bool)
}

// Stats reports an imputation run.
type Stats struct {
	// Imputed is the number of cells filled.
	Imputed int
	// Failed is the number of null cells no predictor output covered.
	Failed int
	// Duration is the wall-clock imputation time.
	Duration time.Duration
}

// ErrColumnKind is returned when the imputation target is not numeric.
var ErrColumnKind = errors.New("impute: target column must be numeric")

// Fill imputes every null cell of numeric column col in rel, in place, using
// p. Every null row is predicted from the pre-fill tuples. Tuples are copied
// on write, so other relations sharing tuple storage are unaffected.
func Fill(rel *dataset.Relation, col int, p Predictor) (Stats, error) {
	if rel.Schema.Attr(col).Kind != dataset.Numeric {
		return Stats{}, ErrColumnKind
	}
	start := time.Now()
	var st Stats
	var sel []int
	for i, t := range rel.Tuples {
		if t[col].Null {
			sel = append(sel, i)
		}
	}
	preds, oks := eval.PredictRows(p, rel, sel)
	for j, i := range sel {
		if !oks[j] {
			st.Failed++
			continue
		}
		nt := rel.Tuples[i].Clone()
		nt[col] = dataset.Num(preds[j])
		rel.Tuples[i] = nt
		st.Imputed++
	}
	st.Duration = time.Since(start)
	return st, nil
}

// Evaluate imputes the null cells of column col in masked (without mutating
// it) and scores the imputations against the ground-truth relation original
// at the given row positions. It returns the imputation RMSE together with
// run stats. Rows whose original cell is null are skipped.
func Evaluate(masked, original *dataset.Relation, col int, rows []int, p Predictor) (rmse float64, st Stats, err error) {
	if masked.Schema.Attr(col).Kind != dataset.Numeric {
		return 0, Stats{}, ErrColumnKind
	}
	start := time.Now()
	sel := make([]int, 0, len(rows))
	for _, i := range rows {
		if !original.Tuples[i][col].Null {
			sel = append(sel, i)
		}
	}
	preds, oks := eval.PredictRows(p, masked, sel)
	var sum float64
	n := 0
	for j, i := range sel {
		if !oks[j] {
			st.Failed++
			continue
		}
		st.Imputed++
		d := original.Tuples[i][col].Num - preds[j]
		sum += d * d
		n++
	}
	st.Duration = time.Since(start)
	if n == 0 {
		return 0, st, nil
	}
	return math.Sqrt(sum / float64(n)), st, nil
}

// RuleSetPredictor adapts a *core.RuleSet to the Predictor interface with
// the fallback disabled: imputation should fail visibly rather than fill
// with the global mean, so rule coverage is measurable.
type RuleSetPredictor struct {
	Rules *core.RuleSet
	// UseFallback, when set, falls back to the rule set's training mean for
	// uncovered tuples instead of failing.
	UseFallback bool
}

// Predict implements Predictor.
func (r RuleSetPredictor) Predict(t dataset.Tuple) (float64, bool) {
	p, covered := r.Rules.Predict(t)
	if covered || r.UseFallback {
		return p, true
	}
	return 0, false
}

// PredictView implements the columnar batch surface with the same fallback
// semantics as Predict: uncovered rows carry the rule set's training mean,
// accepted only when UseFallback is set.
func (r RuleSetPredictor) PredictView(v *dataset.View) ([]float64, []bool) {
	preds, covered := r.Rules.PredictView(v)
	if !r.UseFallback {
		return preds, covered
	}
	ok := make([]bool, len(covered))
	for i := range ok {
		ok[i] = true
	}
	return preds, ok
}
