package cliutil

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/telemetry"
)

// TestWriteMetrics: "-" writes the exposition to the given writer, any other
// path writes the same bytes to that file and nothing to the writer.
func TestWriteMetrics(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(telemetry.MetricStreamRowsIngested).Add(42)
	snap := reg.Snapshot()
	var want bytes.Buffer
	if err := snap.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want.String(), "crr_stream_rows_ingested 42") {
		t.Fatalf("exposition lacks the counter:\n%s", want.String())
	}

	var out bytes.Buffer
	if err := WriteMetrics(&out, "-", snap); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Fatalf("\"-\" wrote\n%s\nwant\n%s", out.String(), want.String())
	}

	out.Reset()
	path := filepath.Join(t.TempDir(), "metrics.prom")
	if err := WriteMetrics(&out, path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("file holds\n%s\nwant\n%s", got, want.String())
	}
	if out.Len() != 0 {
		t.Fatalf("file case also wrote %d bytes to the writer", out.Len())
	}

	if err := WriteMetrics(&out, filepath.Join(t.TempDir(), "missing", "m.prom"), snap); err == nil {
		t.Fatal("a path in a missing directory was accepted")
	}
}
