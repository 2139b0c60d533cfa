package regress

import "math"

// ShareResult is the outcome of the data-based model-sharing test of
// Algorithm 1 Line 7 / Proposition 6.
type ShareResult struct {
	// Delta0 is the residual midpoint δ0 = (max r + min r)/2, the optimal
	// output shift under the max-error criterion (Proposition 6).
	Delta0 float64
	// MaxErr is the maximum absolute error after shifting by Delta0,
	// i.e. (max r − min r)/2.
	MaxErr float64
	// OK reports whether MaxErr ≤ ρ_M, i.e. whether f can be shared on this
	// data part with built-in predicate y = δ0.
	OK bool
	// FitFraction is |{t : |t.Y − (f(t.X)+δ0)| ≤ ρ_M}| / |D_C| — the
	// ingredient of the sharing index ind(C) (Algorithm 1 Line 12).
	FitFraction float64
}

// ShareTest evaluates whether model f can be shared over the sample (x, y)
// within maximum bias rhoM, per Proposition 6: compute residuals
// rᵢ = yᵢ − f(xᵢ), the midpoint shift δ0, and check the post-shift maximum
// error. The midpoint is the *minimax-optimal* shift, so failing at δ0 means
// no shift succeeds — exactly the "only if" of the proposition.
func ShareTest(f Model, x [][]float64, y []float64, rhoM float64) ShareResult {
	return shareTestInto(f, x, y, rhoM, make([]float64, len(x)))
}

// shareTestInto is ShareTest over a caller-provided residual buffer (len ≥
// len(x)): one sweep of model predictions fills it, and shareOf reads the
// envelope and the fit count back from it.
func shareTestInto(f Model, x [][]float64, y []float64, rhoM float64, buf []float64) ShareResult {
	res := buf[:len(x)]
	for i, row := range x {
		res[i] = y[i] - f.Predict(row)
	}
	return shareOf(res, rhoM)
}

// shareOf is the Proposition-6 share test read off a model's residuals
// rᵢ = yᵢ − f(xᵢ): the midpoint shift δ0, the post-shift max error, and the
// fraction of rows within ρ_M of the shifted model. An empty part shares
// with any model.
func shareOf(res []float64, rhoM float64) ShareResult {
	if len(res) == 0 {
		return ShareResult{OK: true, FitFraction: 1}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range res {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	d0 := (lo + hi) / 2
	maxErr := (hi - lo) / 2
	fit := 0
	for _, r := range res {
		if math.Abs(r-d0) <= rhoM {
			fit++
		}
	}
	return ShareResult{
		Delta0:      d0,
		MaxErr:      maxErr,
		OK:          maxErr <= rhoM,
		FitFraction: float64(fit) / float64(len(res)),
	}
}

// Part is a column-major data part: X[j][i] is feature j of row i and Y[i]
// is row i's target. Discovery gathers each X lane and Y of a part into
// contiguous buffers, so a part carries no per-row slice headers. A
// zero-width part has no X lanes; its row count is len(Y).
type Part struct {
	X [][]float64
	Y []float64
}

// Len returns the part's row count.
func (p Part) Len() int { return len(p.Y) }

// ShareScanner runs the discovery hot path's single-pass share scan over a
// column-major part: one sweep over the model set F computes, per model, the
// residual envelope (δ0, post-shift max error) and the fit fraction
// together, so Algorithm 1's Line-7 share test and Line-12 sharing index
// ind(C) come out of the same scan instead of two ShareTest passes over F.
// It owns the residual kernel (Residuals), whose buffer every scan and ρ
// check (MaxAbs) reuses, so steady-state calls do not allocate. It is not
// safe for concurrent use — give each worker its own.
type ShareScanner struct {
	buf []float64
	row []float64 // one gathered row, for families without a lane form
}

// Residuals is the residual kernel: it returns rᵢ = yᵢ − f(xᵢ) for the rows
// of p in the scanner's buffer, which the next call overwrites. A *Linear
// model is evaluated lane by lane as W[0] + Σ W[j+1]·x_j, adding the terms
// in Predict's order, so every residual is bitwise the one Predict gives;
// other families call Predict on one reused row.
func (s *ShareScanner) Residuals(f Model, p Part) []float64 {
	n := p.Len()
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	res := s.buf[:n]
	m, ok := f.(*Linear)
	if !ok || len(m.W) != len(p.X)+1 {
		if cap(s.row) < len(p.X) {
			s.row = make([]float64, len(p.X))
		}
		row := s.row[:len(p.X)]
		for i, y := range p.Y {
			for j, lane := range p.X {
				row[j] = lane[i]
			}
			res[i] = y - f.Predict(row)
		}
		return res
	}
	w0, d := m.W[0], len(p.X)
	switch d {
	case 0:
		for i, y := range p.Y {
			res[i] = y - w0
		}
	case 1:
		w1, x := m.W[1], p.X[0][:n]
		for i, y := range p.Y {
			res[i] = y - (w0 + w1*x[i])
		}
	default:
		// The first lane starts each prediction, the middle lanes add to
		// it, and the last lane's term is added inside the subtraction.
		w1, x := m.W[1], p.X[0][:n]
		for i, v := range x {
			res[i] = w0 + w1*v
		}
		for j := 1; j < d-1; j++ {
			w, x := m.W[j+1], p.X[j][:n]
			for i, v := range x {
				res[i] += w * v
			}
		}
		w, x := m.W[d], p.X[d-1][:n]
		for i, y := range p.Y {
			res[i] = y - (res[i] + w*x[i])
		}
	}
	return res
}

// MaxAbs returns max_i |yᵢ − f(xᵢ)| over p — MaxAbsError on a column-major
// part, read from Residuals.
func (s *ShareScanner) MaxAbs(f Model, p Part) float64 {
	var m float64
	for _, r := range s.Residuals(f, p) {
		if d := math.Abs(r); d > m {
			m = d
		}
	}
	return m
}

// Scan tries the models newest-first (the most recently learned local models
// are the likeliest to recur in neighboring parts) and stops at the first
// shareable one. It returns that model's index with its ShareResult, the
// maximum fit fraction among the models actually scanned, and their count.
// idx is -1 when no model shares; ind then ranges over the whole set and
// equals Line 12's ind(C). On a hit the scan stops early, so ind covers only
// the scanned suffix — Algorithm 1 never consumes ind on that path. Every
// result is bitwise ShareTest's over the same rows laid out row-major.
func (s *ShareScanner) Scan(models []Model, p Part, rhoM float64) (idx int, res ShareResult, ind float64, tried int) {
	for i := len(models) - 1; i >= 0; i-- {
		r := shareOf(s.Residuals(models[i], p), rhoM)
		tried++
		if r.FitFraction > ind {
			ind = r.FitFraction
		}
		if r.OK {
			return i, r, ind, tried
		}
	}
	return -1, ShareResult{}, ind, tried
}

// Index computes ind(C) alone: a full scan with no early exit. The
// DisableSharing ablation still orders the condition queue by ind, so it
// needs the index without the hit test.
func (s *ShareScanner) Index(models []Model, p Part, rhoM float64) float64 {
	var best float64
	for _, f := range models {
		if fr := shareOf(s.Residuals(f, p), rhoM).FitFraction; fr > best {
			best = fr
		}
	}
	return best
}

// MaxAbsError returns max_i |yᵢ − f(xᵢ)| — the bias ρ a freshly trained
// model earns on its own data part (Algorithm 1 Lines 14–15).
func MaxAbsError(f Model, x [][]float64, y []float64) float64 {
	var m float64
	for i, row := range x {
		if d := math.Abs(y[i] - f.Predict(row)); d > m {
			m = d
		}
	}
	return m
}

// RMSE returns the root-mean-square prediction error of f on (x, y).
func RMSE(f Model, x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for i, row := range x {
		d := y[i] - f.Predict(row)
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}
