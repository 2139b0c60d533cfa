package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// writeTaxArtifact discovers a small rule set (Tax ~ Salary under
// conditions on condNames) over a Tax sample of the given size and writes it
// as the JSON artifact crrstream maintains.
func writeTaxArtifact(t *testing.T, dir string, rows int, condNames ...string) (string, *dataset.Relation) {
	t.Helper()
	cfg := dataset.DefaultTaxConfig()
	cfg.Rows = rows
	rel := dataset.GenerateTax(cfg)
	xattrs := []int{mustIndex(t, rel.Schema, "Salary")}
	yattr := mustIndex(t, rel.Schema, "Tax")
	var cond []int
	for _, name := range condNames {
		cond = append(cond, mustIndex(t, rel.Schema, name))
	}
	preds := predicate.Generate(rel, cond, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 32})
	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs: xattrs, YAttr: yattr, RhoM: 60, Preds: preds, Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rules.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := core.WriteRuleSet(f, res.Rules); err != nil {
		t.Fatal(err)
	}
	return path, rel
}

func mustIndex(t *testing.T, s *dataset.Schema, name string) int {
	t.Helper()
	i, err := s.Index(name)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

// TestRunStreamEndToEnd: a well-formed feed replays against the artifact.
func TestRunStreamEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rulesPath, rel := writeTaxArtifact(t, dir, 400, "State", "MaritalStatus")
	feed := filepath.Join(dir, "feed.csv")
	f, err := os.Create(feed)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, rel); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runConfig{
		input: feed, rulesPath: rulesPath, window: 128, swapEvery: 0,
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunStreamCorruptCSVDiagnostic: a malformed feed must come back as a
// typed dataset.ErrMalformedCSV through run's error return — the diagnostic
// main prints before exit 1 — never a panic or stack trace.
func TestRunStreamCorruptCSVDiagnostic(t *testing.T) {
	dir := t.TempDir()
	rulesPath, _ := writeTaxArtifact(t, dir, 400, "State", "MaritalStatus")
	cases := map[string]string{
		"ragged":          "Salary,Tax\n100,5\n200\n",
		"truncated quote": "Salary,Tax\n\"unterminated,5\n",
		"empty":           "",
	}
	for name, body := range cases {
		feed := filepath.Join(t.TempDir(), "bad.csv")
		if err := os.WriteFile(feed, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err := run(context.Background(), &buf, runConfig{
			input: feed, rulesPath: rulesPath, window: 128,
		})
		if !errors.Is(err, dataset.ErrMalformedCSV) {
			t.Errorf("%s: err = %v, want ErrMalformedCSV", name, err)
		}
	}
}

// TestRunStreamNaNCell: ReadCSV reads the cell "NaN" as a number. A NaN in
// the first X attribute, which every Salary-window rule bounds, fails every
// bound, so the row must route to no rule instead of crashing the
// maintainer's rule lookup.
func TestRunStreamNaNCell(t *testing.T) {
	dir := t.TempDir()
	rulesPath, rel := writeTaxArtifact(t, dir, 2000, "Salary")
	salary := mustIndex(t, rel.Schema, "Salary")
	tp := rel.Tuples[100].Clone()
	tp[salary] = dataset.Num(math.NaN())
	rel.Tuples[100] = tp
	feed := filepath.Join(dir, "nan.csv")
	f, err := os.Create(feed)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, rel); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runConfig{
		input: feed, rulesPath: rulesPath, window: 1024, rhoM: 60,
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunStreamPushHonoursCancel: a node that never answers /v1/reload must
// not hold the replay past the run's context. The reload handler blocks
// until its request ends; once the context is canceled (what SIGINT and
// SIGTERM do), run must return promptly and cleanly, with -save written.
func TestRunStreamPushHonoursCancel(t *testing.T) {
	dir := t.TempDir()
	rulesPath, rel := writeTaxArtifact(t, dir, 2000, "State")
	feed := filepath.Join(dir, "feed.csv")
	f, err := os.Create(feed)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, rel); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	// Deferred after srv.Close, so it runs first: a handler whose client
	// never hangs up must not keep Close waiting.
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	save := filepath.Join(dir, "refreshed.json")
	done := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		done <- run(ctx, &buf, runConfig{
			input: feed, rulesPath: rulesPath, window: 512, swapEvery: 500, rhoM: 60,
			push: srv.URL, save: save,
		})
	}()
	select {
	case <-arrived:
	case err := <-done:
		t.Fatalf("run returned before any push: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no reload request arrived")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still blocked 5s after cancel: the push ignores the run's context")
	}
	if _, err := os.Stat(save); err != nil {
		t.Fatalf("-save not written: %v", err)
	}
}
