package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestHotPathCompareIdentical is the acceptance check of the hot path: on
// all five evaluation datasets, sequential discovery with the
// sufficient-statistics fast path must produce output structurally
// identical to the full-pass run (same rules, same order, weights within
// 1e-9), while actually exercising the fast path.
func TestHotPathCompareIdentical(t *testing.T) {
	rows, err := HotPathCompare(context.Background(), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("datasets compared = %d, want 5", len(rows))
	}
	reused := false
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: fast and full-pass output diverged", r.Dataset)
		}
		if r.RuleCount == 0 {
			t.Errorf("%s: no rules discovered", r.Dataset)
		}
		if r.StatReuse > 0 {
			reused = true
		}
	}
	if !reused {
		t.Error("sufficient-statistics fast path never fired across all datasets")
	}
}

func TestRenderCompareRows(t *testing.T) {
	rows, err := HotPathCompare(context.Background(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderCompareRows(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"dataset", "speedup", "stat-reuse", "BirdMap", "Tax"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table lacks %q:\n%s", want, out)
		}
	}
}

func TestCompareExperimentRegistered(t *testing.T) {
	e, err := Lookup("compare")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Run(context.Background(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // five datasets × {fast, full-pass}
		t.Errorf("rows = %d, want 10", len(rows))
	}
}
