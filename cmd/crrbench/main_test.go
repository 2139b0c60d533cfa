package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/telemetry"
)

// TestRunSingleExperiment runs tab4 in both formats; each must mirror the
// sweep's telemetry totals into the registry that -metrics writes.
func TestRunSingleExperiment(t *testing.T) {
	for _, format := range []string{"table", "csv"} {
		reg := telemetry.New()
		if err := run(context.Background(), io.Discard, reg, "tab4", 0.05, format); err != nil {
			t.Fatalf("run(tab4, %s): %v", format, err)
		}
		snap := reg.Snapshot()
		for _, m := range []string{telemetry.MetricModelsTrained, telemetry.MetricConditionsExpanded} {
			if snap.Counters[m] == 0 {
				t.Errorf("-format %s: %s = 0 in the registry", format, m)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), io.Discard, telemetry.New(), "nope", 1, "table"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run(context.Background(), io.Discard, telemetry.New(), "tab4", 1, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
	for _, scale := range []float64{0, -1, 7} {
		err := run(context.Background(), io.Discard, telemetry.New(), "tab4", scale, "table")
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Fatalf("-scale %g: err = %v, want an error naming -scale", scale, err)
		}
	}
}

func TestRunAllSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("all experiments take a few seconds")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, telemetry.New(), "all", 0.05, "csv"); err != nil {
		t.Fatalf("run(all): %v", err)
	}
	if n := strings.Count(out.String(), "experiment,dataset,method,"); n != 1 {
		t.Errorf("CSV output has %d header lines, want 1", n)
	}
}
