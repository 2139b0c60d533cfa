package induction_test

import (
	"context"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/induction"
)

// TestGrowPruneOverColumns: the grow/prune strategy runs entirely on the
// substrate kernels, so it must work — and agree bitwise with the
// relation-backed run — when discovery is column-store-backed.
func TestGrowPruneOverColumns(t *testing.T) {
	spec := experiments.TaxSpec()
	rel := spec.Gen(300)
	cfg := specConfig(spec, rel)
	cfg.Strategy = induction.GrowPrune{}
	relRes, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	colRes, err := core.DiscoverColumns(context.Background(), dataset.NewColumnSet(rel), core.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !experiments.SameRules(relRes.Rules, colRes.Rules, 0) {
		t.Fatal("growprune output diverged between relation- and column-backed runs")
	}
}
