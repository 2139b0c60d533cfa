package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeSide writes a checkout whose benchmark is a shell script: every run
// reports the same latency and the rules digest sha in its result file.
func fakeSide(t *testing.T, spec, sha string) string {
	t.Helper()
	dir := t.TempDir()
	script := `mkdir -p .bench_build/crrperf
echo '{"results": [{"rules_sha256": "` + sha + `"}]}' > ` + compareOut + `
echo '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"latency_ms": {"value": 1.5, "unit": "ms"}}}'
`
	for name, body := range map[string]string{"BENCHMARK.json": spec, "side.sh": script} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// -compare judges a workload only when both sides mined the same rules
// from the same seed; otherwise every verdict on it is unresolved and the
// digests are printed.
func TestCompareRequiresSameRules(t *testing.T) {
	spec := `{"command": ["sh", "side.sh"], "run_seconds": 1,
		"workloads": [{"name": "w"}],
		"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	parent := fakeSide(t, spec, "aaaaaaaaaaaaaaaa")
	for _, tc := range []struct {
		sha, want string
	}{
		{"aaaaaaaaaaaaaaaa", "unchanged"},
		{"bbbbbbbbbbbbbbbb", "rules differ (seed 1: parent aaaaaaaaaaaa, change bbbbbbbbbbbb)"},
	} {
		var out bytes.Buffer
		if err := runCompare(context.Background(), &out, parent, fakeSide(t, spec, tc.sha), 1, "all"); err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(rows) != 2 || !strings.Contains(rows[1], tc.want) {
			t.Errorf("change digest %s: got\n%s\nwant a row with %q", tc.sha, out.String(), tc.want)
		}
		if tc.sha != "aaaaaaaaaaaaaaaa" && !strings.Contains(rows[1], string(unresolved)) {
			t.Errorf("different rules judged: %s", rows[1])
		}
	}
}
