package eval

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/crrlab/crr/internal/dataset"
)

func TestRMSEAndMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 4, 3}
	if got := RMSE(pred, truth); math.Abs(got-math.Sqrt(4.0/3)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if got := MAE(pred, truth); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("MAE = %v", got)
	}
	if RMSE(nil, nil) != 0 || MAE(nil, nil) != 0 {
		t.Error("empty metrics should be 0")
	}
}

func TestRMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

type constPredictor struct {
	v  float64
	ok bool
}

func (c constPredictor) Predict(dataset.Tuple) (float64, bool) { return c.v, c.ok }

func TestScore(t *testing.T) {
	s := dataset.MustSchema(dataset.Attribute{Name: "Y", Kind: dataset.Numeric})
	rel := dataset.NewRelation(s)
	rel.MustAppend(dataset.Tuple{dataset.Num(5)})
	rel.MustAppend(dataset.Tuple{dataset.Num(7)})
	rel.MustAppend(dataset.Tuple{dataset.Null()}) // skipped
	rmse, _ := Score(constPredictor{v: 6, ok: true}, rel, 0, 0)
	if math.Abs(rmse-1) > 1e-12 {
		t.Errorf("Score RMSE = %v, want 1", rmse)
	}
	// Uncovered predictor: every tuple scored against the fallback.
	rmse, _ = Score(constPredictor{ok: false}, rel, 0, 6)
	if math.Abs(rmse-1) > 1e-12 {
		t.Errorf("fallback RMSE = %v, want 1", rmse)
	}
}

func TestTimed(t *testing.T) {
	d := Timed(func() { time.Sleep(2 * time.Millisecond) })
	if d < time.Millisecond {
		t.Errorf("Timed = %v, want ≥ 1ms", d)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Results", "Method", "RMSE")
	tb.AddRowf("CRR", 0.123456)
	tb.AddRowf("RegTree", 7)
	tb.AddRow("Short") // missing cell renders empty
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Results", "Method", "RMSE", "CRR", "0.1235", "RegTree", "7", "Short"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Errorf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestTableDurationsAndDefault(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRowf(1500*time.Millisecond, []int{1})
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.500s") {
		t.Errorf("duration cell missing: %s", buf.String())
	}
}
