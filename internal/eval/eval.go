// Package eval provides the measurement utilities shared by the experiment
// harness: error metrics, wall-clock timing of fit/predict phases, and
// plain-text table rendering for the figures and tables of §VI.
package eval

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/telemetry"
)

// RMSE returns the root-mean-square difference between pred and truth; it
// panics on length mismatch.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("eval: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// MAE returns the mean absolute difference between pred and truth.
func MAE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("eval: MAE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// Predictor matches core.RuleSet and baseline.Method prediction surfaces.
type Predictor interface {
	Predict(t dataset.Tuple) (float64, bool)
}

// viewPredictor is the columnar batch-classification surface (satisfied by
// *core.RuleSet and impute.RuleSetPredictor): one call classifies every
// selected row of a view.
type viewPredictor interface {
	PredictView(v *dataset.View) ([]float64, []bool)
}

// PredictRows answers p on the rows sel of rel, in sel's order: one
// PredictView pass over rel's columns when p has the columnar surface and
// sel strictly increases (a view's selection), tuple by tuple otherwise.
// The two paths give the same answers bit for bit.
func PredictRows(p Predictor, rel *dataset.Relation, sel []int) (preds []float64, ok []bool) {
	if vp, isView := p.(viewPredictor); isView && len(sel) > 0 && increasing(sel) {
		return vp.PredictView(&dataset.View{Cols: dataset.NewColumnSet(rel), Sel: sel})
	}
	preds = make([]float64, len(sel))
	ok = make([]bool, len(sel))
	for j, i := range sel {
		preds[j], ok[j] = p.Predict(rel.Tuples[i])
	}
	return preds, ok
}

// increasing reports whether rows is strictly increasing.
func increasing(rows []int) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			return false
		}
	}
	return true
}

// Score evaluates p on rel's yattr with fallback for uncovered tuples,
// returning the RMSE and the evaluation wall time. The squared errors are
// summed in row order.
func Score(p Predictor, rel *dataset.Relation, yattr int, fallback float64) (rmse float64, elapsed time.Duration) {
	start := time.Now()
	sel := make([]int, 0, rel.Len())
	for i, t := range rel.Tuples {
		if !t[yattr].Null {
			sel = append(sel, i)
		}
	}
	preds, covered := PredictRows(p, rel, sel)
	var sum float64
	for j, i := range sel {
		v := preds[j]
		if !covered[j] {
			v = fallback
		}
		d := rel.Tuples[i][yattr].Num - v
		sum += d * d
	}
	elapsed = time.Since(start)
	if len(sel) == 0 {
		return 0, elapsed
	}
	return math.Sqrt(sum / float64(len(sel))), elapsed
}

// Timed runs fn and returns its duration.
func Timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// Table renders aligned plain-text tables, the output format of
// cmd/crrbench.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: strings pass through, float64
// render with %.4g, ints with %d, time.Duration in seconds or milliseconds.
func (t *Table) AddRowf(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			out[i] = v
		case float64:
			out[i] = fmt.Sprintf("%.4g", v)
		case int:
			out[i] = fmt.Sprintf("%d", v)
		case time.Duration:
			out[i] = telemetry.FormatDuration(v)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(out...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
