// Package regress implements the regression substrate of CRR discovery: the
// basic model families the paper selects (§VI-A3) — F1 linear regression, F2
// ridge regression, F3 multi-layer perceptron — together with the translation
// solver behind the Translation inference (Proposition 5) and the data-based
// δ0 sharing test (Proposition 6).
package regress

import "errors"

// Model is a trained regression function f : X → Y over a fixed-width
// feature vector.
type Model interface {
	// Predict evaluates f(x). It panics if len(x) differs from Dim().
	Predict(x []float64) float64
	// Dim returns the expected feature-vector width.
	Dim() int
	// Family returns the model family name ("linear", "ridge", "mlp").
	Family() string
	// Equal reports whether the other model has identical family and
	// parameters within tol (used by rule fusion, which requires f = f').
	Equal(other Model, tol float64) bool
}

// Trainer fits a Model to a design matrix.
type Trainer interface {
	// Train fits a model on rows x (each of equal width) and targets y.
	Train(x [][]float64, y []float64) (Model, error)
	// Name returns the paper's identifier for the family (F1, F2, F3).
	Name() string
}

// GramTrainer is implemented by trainers that can fit from sufficient
// statistics alone (XᵀX, Xᵀy, yᵀy), enabling the discovery engine's O(d³)
// stat-reuse fast path: parts whose Gram was accumulated during split
// filtering train without another pass over their rows. TrainGram returns
// an error (typically ErrGramUnsupported or mat.ErrSingular) when the
// statistics cannot serve the fit; callers then fall back to Train.
type GramTrainer interface {
	Trainer
	// TrainGram fits a model from sufficient statistics.
	TrainGram(g *Gram) (Model, error)
}

// FullPass wraps a trainer so that engines cannot reach a sufficient-
// statistics fast path through it: the wrapper deliberately does not
// implement GramTrainer. It is the reference configuration for
// BenchmarkDiscoverFullPass and for cross-checking the fast path in tests.
type FullPass struct{ T Trainer }

// Train implements Trainer by delegating.
func (f FullPass) Train(x [][]float64, y []float64) (Model, error) { return f.T.Train(x, y) }

// Name implements Trainer by delegating.
func (f FullPass) Name() string { return f.T.Name() }

// ErrNoData is returned when Train receives an empty sample.
var ErrNoData = errors.New("regress: empty training sample")

// ErrBadSample is returned when the design matrix is ragged or the target
// length differs from the row count.
var ErrBadSample = errors.New("regress: malformed training sample")

// Translation is the (Δ, δ) pair of Proposition 5: to(X) = from(X+Δ) + δ.
type Translation struct {
	DeltaX []float64 // per-feature input shift Δ
	DeltaY float64   // output shift δ
}

// IsPureY reports whether the translation shifts only the output.
func (tr Translation) IsPureY() bool {
	for _, d := range tr.DeltaX {
		if d != 0 {
			return false
		}
	}
	return true
}

// Translatable is implemented by model families that can solve the
// Translation equation f2(X) = f1(X+Δ)+δ in closed form (linear families).
type Translatable interface {
	// SolveTranslation returns Δ, δ with other(X) = m(X+Δ)+δ when the two
	// models are translations of each other within tol; ok is false
	// otherwise.
	SolveTranslation(other Model, tol float64) (Translation, bool)
}

// PredictShifted evaluates f(x + Δ) + δ, the shifted application a CRR's
// built-in predicates prescribe (§III-A3). A nil DeltaX means Δ = 0.
func PredictShifted(m Model, x []float64, tr Translation) float64 {
	if len(tr.DeltaX) == 0 {
		return m.Predict(x) + tr.DeltaY
	}
	shifted := make([]float64, len(x))
	for i, v := range x {
		d := 0.0
		if i < len(tr.DeltaX) {
			d = tr.DeltaX[i]
		}
		shifted[i] = v + d
	}
	return m.Predict(shifted) + tr.DeltaY
}

func validateSample(x [][]float64, y []float64) (dim int, err error) {
	if len(x) == 0 {
		return 0, ErrNoData
	}
	if len(x) != len(y) {
		return 0, ErrBadSample
	}
	dim = len(x[0])
	for _, row := range x {
		if len(row) != dim {
			return 0, ErrBadSample
		}
	}
	return dim, nil
}
