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
// *core.RuleSet): one call classifies every selected row of a view.
type viewPredictor interface {
	PredictView(v *dataset.View) ([]float64, []bool)
}

// Score evaluates p on rel's yattr with fallback for uncovered tuples,
// returning the RMSE and the evaluation wall time. Predictors exposing the
// columnar batch surface (PredictView) are scored in one columnar pass;
// the accumulation order and results match the per-tuple loop exactly.
func Score(p Predictor, rel *dataset.Relation, yattr int, fallback float64) (rmse float64, elapsed time.Duration) {
	start := time.Now()
	var sum float64
	n := 0
	if vp, ok := p.(viewPredictor); ok {
		sel := make([]int, 0, rel.Len())
		for i, t := range rel.Tuples {
			if !t[yattr].Null {
				sel = append(sel, i)
			}
		}
		preds, covered := vp.PredictView(&dataset.View{Cols: dataset.NewColumnSet(rel), Sel: sel})
		for j, i := range sel {
			v := preds[j]
			if !covered[j] {
				v = fallback
			}
			d := rel.Tuples[i][yattr].Num - v
			sum += d * d
			n++
		}
	} else {
		for _, t := range rel.Tuples {
			if t[yattr].Null {
				continue
			}
			v, ok := p.Predict(t)
			if !ok {
				v = fallback
			}
			d := t[yattr].Num - v
			sum += d * d
			n++
		}
	}
	elapsed = time.Since(start)
	if n == 0 {
		return 0, elapsed
	}
	return math.Sqrt(sum / float64(n)), elapsed
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
