package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// discoverAndSave mines rules from a complete CSV and saves them, standing
// in for a `crrdiscover -save` invocation.
func discoverAndSave(csvPath, rulesPath string) error {
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	rel, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	timeIdx, err := rel.Schema.Index("Time")
	if err != nil {
		return err
	}
	coIdx, err := rel.Schema.Index("CO")
	if err != nil {
		return err
	}
	preds := predicate.Generate(rel, []int{timeIdx}, predicate.GeneratorConfig{})
	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs: []int{timeIdx}, YAttr: coIdx, RhoM: 1.0,
		Preds: preds, Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		return err
	}
	rules, _, err := core.CompactCtx(context.Background(), res.Rules, core.CompactOptions{})
	if err != nil {
		return err
	}
	out, err := os.Create(rulesPath)
	if err != nil {
		return err
	}
	defer out.Close()
	return core.WriteRuleSet(out, rules)
}

// writeAirCSV writes an AirQuality CSV with a fraction of CO cells masked.
func writeAirCSV(t *testing.T, rows int, maskFrac float64) string {
	t.Helper()
	cfg := dataset.DefaultAirQualityConfig()
	cfg.Rows = rows
	rel := dataset.GenerateAirQuality(cfg)
	if maskFrac > 0 {
		rel.MaskMissing(rel.Schema.MustIndex("CO"), maskFrac, rand.New(rand.NewSource(1)))
	}
	path := filepath.Join(t.TempDir(), "air.csv")
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

func TestRunImputeEndToEnd(t *testing.T) {
	input := writeAirCSV(t, 600, 0.1)
	output := filepath.Join(t.TempDir(), "filled.csv")
	if err := run(context.Background(), input, output, "CO", "Time", 1.0, true, "", 1, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(output)
	if err != nil {
		t.Fatal(err)
	}
	// No empty CO cells remain (column 2 of the header Time,CO,...).
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 601 {
		t.Fatalf("output rows = %d, want 601", len(lines))
	}
	for i, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if cells[1] == "" {
			t.Fatalf("row %d still missing CO", i+1)
		}
	}
}

func TestRunImputeWithSavedRules(t *testing.T) {
	// Discover + save on complete data via the crrdiscover flow is covered
	// elsewhere; here exercise the -rules load path with a hand-saved set.
	complete := writeAirCSV(t, 600, 0)
	rules := filepath.Join(t.TempDir(), "rules.json")
	// Reuse run() to discover and fill in-place first, then save via the
	// core API is cmd/crrdiscover's job — simulate with a quick discovery.
	if err := discoverAndSave(complete, rules); err != nil {
		t.Fatal(err)
	}
	masked := writeAirCSV(t, 600, 0.1)
	output := filepath.Join(t.TempDir(), "filled.csv")
	if err := run(context.Background(), masked, output, "CO", "Time", 1.0, true, rules, 1, 0); err != nil {
		t.Fatalf("run with -rules: %v", err)
	}
}

func TestRunImputeValidation(t *testing.T) {
	input := writeAirCSV(t, 100, 0.1)
	if err := run(context.Background(), "", "", "CO", "Time", 1, false, "", 1, 0); err == nil {
		t.Error("missing input accepted")
	}
	if err := run(context.Background(), input, "", "Nope", "Time", 1, false, "", 1, 0); err == nil {
		t.Error("unknown column accepted")
	}
	if err := run(context.Background(), input, "", "CO", "Nope", 1, false, "", 1, 0); err == nil {
		t.Error("unknown x accepted")
	}
	if err := run(context.Background(), input, "", "CO", "Time", 1, false, "/does/not/exist.json", 1, 0); err == nil {
		t.Error("missing rules file accepted")
	}
}
