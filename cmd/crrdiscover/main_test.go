package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/crrlab/crr/internal/colstore"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// writeTaxCSV writes a small Tax CSV fixture and returns its path.
func writeTaxCSV(t *testing.T, rows int) string {
	t.Helper()
	cfg := dataset.DefaultTaxConfig()
	cfg.Rows = rows
	return writeCSV(t, t.TempDir(), "tax.csv", dataset.GenerateTax(cfg))
}

// writeCSV writes rel as dir/name and returns the path.
func writeCSV(t *testing.T, dir, name string, rel *dataset.Relation) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, rel); err != nil {
		t.Fatal(err)
	}
	return path
}

// airQuality is the 600-row AirQuality relation that CO ~ Time | Time at
// ρ_M 0.25 over-refines into windows -prune merges.
func airQuality() *dataset.Relation {
	cfg := dataset.DefaultAirQualityConfig()
	cfg.Rows = 600
	return dataset.GenerateAirQuality(cfg)
}

// pruneRun is the -prune configuration over airQuality.
var pruneRun = runConfig{
	yName: "CO", xNames: "Time", condCols: "Time",
	rhoM: 0.25, family: "F1", prune: true, workers: 1,
}

// countAfter parses the rule count that follows prefix on its output line.
func countAfter(t *testing.T, out, prefix string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(strings.Fields(rest)[0])
			if err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
	return 0
}

func TestRunDiscoverEndToEnd(t *testing.T) {
	input := writeTaxCSV(t, 800)
	save := filepath.Join(t.TempDir(), "rules.json")
	err := run(context.Background(), runConfig{
		input: input, yName: "Tax", xNames: "Salary", condCols: "State,MaritalStatus",
		rhoM: 60, family: "F1", compact: true, tol: 0.002, workers: 2, save: save,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The saved rule set must load back.
	if fi, err := os.Stat(save); err != nil || fi.Size() == 0 {
		t.Fatalf("saved rules missing: %v", err)
	}
}

// TestRunPrintsTelemetrySummary asserts the acceptance-criteria output: a
// telemetry line with models trained/shared and conditions expanded, and a
// phases line with per-phase wall time.
func TestRunPrintsTelemetrySummary(t *testing.T) {
	input := writeTaxCSV(t, 600)
	var buf bytes.Buffer
	err := runTo(context.Background(), &buf, runConfig{
		input: input, yName: "Tax", xNames: "Salary", rhoM: 60, family: "F1", compact: true, workers: 1,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"telemetry: ",
		"conditions expanded=",
		"models trained=",
		"models shared=",
		"phases: ",
		"discover=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTimeout: an immediately expiring -timeout aborts the mine and
// surfaces a context error.
func TestRunTimeout(t *testing.T) {
	input := writeTaxCSV(t, 800)
	err := run(context.Background(), runConfig{
		input: input, yName: "Tax", xNames: "Salary", rhoM: 60, family: "F1",
		workers: 1, timeout: time.Nanosecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestRunDiscoverPrune(t *testing.T) {
	input := writeTaxCSV(t, 600)
	err := run(context.Background(), runConfig{
		input: input, yName: "Tax", xNames: "Salary",
		rhoM: 60, family: "F2", prune: true, workers: 1,
	})
	if err != nil {
		t.Fatalf("run with prune: %v", err)
	}
}

// TestRunPruneReportsDiscoveredCount: the "discovered" line reports what
// discovery emitted, before -prune merges any window.
func TestRunPruneReportsDiscoveredCount(t *testing.T) {
	input := writeCSV(t, t.TempDir(), "aq.csv", airQuality())
	var plain, pruned bytes.Buffer
	rc := pruneRun
	rc.input, rc.prune = input, false
	if err := runTo(context.Background(), &plain, rc); err != nil {
		t.Fatalf("run: %v", err)
	}
	rc.prune = true
	if err := runTo(context.Background(), &pruned, rc); err != nil {
		t.Fatalf("run -prune: %v", err)
	}
	discovered := countAfter(t, plain.String(), "discovered ")
	if got := countAfter(t, pruned.String(), "discovered "); got != discovered {
		t.Errorf("-prune run reports %d discovered rules, discovery emitted %d", got, discovered)
	}
	if got := countAfter(t, pruned.String(), "pruned to "); got >= discovered {
		t.Errorf("pruned to %d of %d rules: the fixture should merge", got, discovered)
	}
}

func TestRunDiscoverValidation(t *testing.T) {
	input := writeTaxCSV(t, 100)
	cases := []runConfig{
		{},                           // missing everything
		{input: input, yName: "Tax"}, // missing -x
		{input: input, yName: "Nope", xNames: "Salary", family: "F1", rhoM: 1},                  // unknown y
		{input: input, yName: "Tax", xNames: "Nope", family: "F1", rhoM: 1},                     // unknown x
		{input: input, yName: "Tax", xNames: "Salary", family: "F9", rhoM: 1},                   // unknown family
		{input: input, yName: "Tax", xNames: "Salary", condCols: "Nope", family: "F1", rhoM: 1}, // unknown cond
		{input: "/does/not/exist.csv", yName: "Tax", xNames: "Salary", family: "F1", rhoM: 1},
	}
	for i, rc := range cases {
		rc.workers = 1
		if err := run(context.Background(), rc); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunDiscoverDefaultCondAttrs(t *testing.T) {
	input := writeTaxCSV(t, 400)
	// No -cond: categorical columns must be picked up automatically.
	err := run(context.Background(), runConfig{
		input: input, yName: "Tax", xNames: "Salary", rhoM: 60, family: "F1", workers: 1,
	})
	if err != nil {
		t.Fatalf("run without -cond: %v", err)
	}
}

// TestRunCorruptCSVDiagnostic: a malformed feed must come back as a typed
// dataset.ErrMalformedCSV through run's error return — the diagnostic main
// prints before exit 1 — never a panic or stack trace.
func TestRunCorruptCSVDiagnostic(t *testing.T) {
	cases := map[string]string{
		"ragged":          "Salary,Tax\n100,5\n200\n",
		"truncated quote": "Salary,Tax\n\"unterminated,5\n",
		"empty":           "",
	}
	for name, body := range cases {
		path := filepath.Join(t.TempDir(), "bad.csv")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), runConfig{
			input: path, yName: "Tax", xNames: "Salary", rhoM: 60, family: "F1", workers: 1,
		})
		if !errors.Is(err, dataset.ErrMalformedCSV) {
			t.Errorf("%s: err = %v, want ErrMalformedCSV", name, err)
		}
	}
}

// TestRunStoreMode: -store discovery over an on-disk column store must emit
// exactly the rules the CSV path emits on the same data, and -store -prune
// must save the same artifact bytes as the CSV -prune run.
func TestRunStoreMode(t *testing.T) {
	cfg := dataset.DefaultTaxConfig()
	cfg.Rows = 600
	rel := dataset.GenerateTax(cfg)
	dir := t.TempDir()
	csvPath := writeCSV(t, dir, "tax.csv", rel)
	storeDir := filepath.Join(dir, "tax.crrcol")
	if err := colstore.Build(storeDir, rel, 97); err != nil {
		t.Fatal(err)
	}

	base := runConfig{
		yName: "Tax", xNames: "Salary", condCols: "State,MaritalStatus",
		rhoM: 60, family: "F1", workers: 1,
	}
	var csvOut, storeOut bytes.Buffer
	csvRC := base
	csvRC.input = csvPath
	if err := runTo(context.Background(), &csvOut, csvRC); err != nil {
		t.Fatalf("csv run: %v", err)
	}
	storeRC := base
	storeRC.input, storeRC.store = storeDir, true
	if err := runTo(context.Background(), &storeOut, storeRC); err != nil {
		t.Fatalf("store run: %v", err)
	}

	ruleLines := func(out string) []string {
		var rules []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "φ") || strings.HasPrefix(line, "discovered ") {
				rules = append(rules, line)
			}
		}
		return rules
	}
	cr, sr := ruleLines(csvOut.String()), ruleLines(storeOut.String())
	if len(cr) == 0 || len(cr) != len(sr) {
		t.Fatalf("rule line count: csv %d, store %d", len(cr), len(sr))
	}
	for i := range cr {
		if cr[i] != sr[i] {
			t.Fatalf("rule line %d diverged:\ncsv:   %s\nstore: %s", i, cr[i], sr[i])
		}
	}

	aq := airQuality()
	aqStore := filepath.Join(dir, "aq.crrcol")
	if err := colstore.Build(aqStore, aq, 97); err != nil {
		t.Fatal(err)
	}
	var saved [2][]byte
	for i, in := range []struct {
		input string
		store bool
	}{{writeCSV(t, dir, "aq.csv", aq), false}, {aqStore, true}} {
		rc := pruneRun
		rc.input, rc.store = in.input, in.store
		rc.save = filepath.Join(dir, fmt.Sprintf("pruned%d.json", i))
		var out bytes.Buffer
		if err := runTo(context.Background(), &out, rc); err != nil {
			t.Fatalf("-store=%v -prune: %v", in.store, err)
		}
		if countAfter(t, out.String(), "pruned to ") >= countAfter(t, out.String(), "discovered ") {
			t.Fatalf("-store=%v -prune merged nothing:\n%s", in.store, out.String())
		}
		b, err := os.ReadFile(rc.save)
		if err != nil {
			t.Fatal(err)
		}
		saved[i] = b
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatalf("-prune artifacts differ: CSV %d bytes, store %d bytes", len(saved[0]), len(saved[1]))
	}
}

// TestRunStoreModeCorrupt: a damaged store must surface colstore's typed
// corruption error as a diagnostic, not a panic.
func TestRunStoreModeCorrupt(t *testing.T) {
	cfg := dataset.DefaultTaxConfig()
	cfg.Rows = 50
	storeDir := filepath.Join(t.TempDir(), "tax.crrcol")
	if err := colstore.Build(storeDir, dataset.GenerateTax(cfg), 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(storeDir, "col0.f64"), 40); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), runConfig{
		input: storeDir, store: true, yName: "Tax", xNames: "Salary",
		rhoM: 60, family: "F1", workers: 1,
	})
	if !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("corrupt store: err = %v, want ErrCorrupt", err)
	}
}

// TestRunDiscoverStrategy drives the -strategy seam end to end: each named
// induction strategy must run the pipeline, emit rules, and (for the
// non-lattice strategies) surface its counters on the induction summary line.
func TestRunDiscoverStrategy(t *testing.T) {
	input := writeTaxCSV(t, 500)
	for _, name := range []string{"lattice", "growprune"} {
		var buf bytes.Buffer
		err := runTo(context.Background(), &buf, runConfig{
			input: input, yName: "Tax", xNames: "Salary", condCols: "State,MaritalStatus",
			rhoM: 60, family: "F1", workers: 1, strategy: name,
		})
		if err != nil {
			t.Fatalf("-strategy %s: %v", name, err)
		}
		out := buf.String()
		if !strings.Contains(out, "discovered ") {
			t.Errorf("-strategy %s: no discovery summary in output", name)
		}
		if name != "lattice" && !strings.Contains(out, "induction:") {
			t.Errorf("-strategy %s: no induction telemetry line in output:\n%s", name, out)
		}
	}
	err := run(context.Background(), runConfig{
		input: input, yName: "Tax", xNames: "Salary", rhoM: 60, family: "F1",
		workers: 1, strategy: "nope",
	})
	if err == nil {
		t.Fatal("unknown -strategy accepted")
	}
}

// TestRunPruneChargedToCompactPhase: -prune's time lands in phase.compact,
// the phase that also covers compaction and window merging, so a run's
// phases account for it. The reference is the fastest of five core.Prune
// calls on the same discovered rules over the same relation's columns.
func TestRunPruneChargedToCompactPhase(t *testing.T) {
	cfg := dataset.DefaultAirQualityConfig()
	cfg.Rows = 6000
	rel := dataset.GenerateAirQuality(cfg)
	input := writeCSV(t, t.TempDir(), "aq.csv", rel)
	rc := pruneRun
	rc.input, rc.metrics = input, "-"
	var out bytes.Buffer
	if err := runTo(context.Background(), &out, rc); err != nil {
		t.Fatalf("run -prune: %v", err)
	}
	var phase float64
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "crr_phase_compact_sum "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			phase = v
		}
	}

	cols := dataset.NewColumnSet(rel)
	timeAttr, co := rel.Schema.MustIndex("Time"), rel.Schema.MustIndex("CO")
	res, err := core.DiscoverColumns(context.Background(), cols, core.WithConfig(core.DiscoverConfig{
		XAttrs: []int{timeAttr}, YAttr: co, RhoM: rc.rhoM, Trainer: regress.LinearTrainer{}, Workers: 1,
		Preds: predicate.GenerateColumns(cols, []int{timeAttr}, predicate.GeneratorConfig{}),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := countAfter(t, out.String(), "discovered "); got != res.Rules.NumRules() {
		t.Fatalf("run discovered %d rules, the reference %d", got, res.Rules.NumRules())
	}
	prune := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, _, err := core.Prune(cols, res.Rules, core.PruneOptions{RhoM: rc.rhoM}); err != nil {
			t.Fatal(err)
		}
		prune = min(prune, time.Since(start))
	}
	t.Logf("phase.compact %.6fs, core.Prune %v over %d rules", phase, prune, res.Rules.NumRules())
	if phase < prune.Seconds()/2 {
		t.Errorf("phase.compact = %.6fs under -prune, want at least half of core.Prune's %v", phase, prune)
	}
}
