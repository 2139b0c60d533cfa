package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/induction"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// TestDiscoverColumnsBitwise: DiscoverColumns over a ColumnSet (no Relation
// anywhere in the run) must be bitwise-identical to Discover over the
// relation the ColumnSet was built from, on every generator, nulls included.
// This is the contract that lets the out-of-core store feed discovery: an
// mmap'd store adopts into exactly this kind of ColumnSet.
func TestDiscoverColumnsBitwise(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			rel := maskedRelation(spec, 500, rng)
			preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
				Kind: predicate.Binary, Size: 48, Seed: 17,
			})
			cfg := core.DiscoverConfig{
				XAttrs:  spec.XAttrs,
				YAttr:   spec.YAttr,
				RhoM:    spec.RhoM,
				Preds:   preds,
				Trainer: regress.LinearTrainer{},
			}
			relRes, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			colRes, err := core.DiscoverColumns(context.Background(), dataset.NewColumnSet(rel), core.WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if !experiments.SameRules(relRes.Rules, colRes.Rules, 0) {
				t.Fatal("relation-backed and column-backed discovery output not bitwise-identical")
			}
			if relRes.Stats != colRes.Stats {
				t.Fatalf("stats diverged: relation %+v, columns %+v", relRes.Stats, colRes.Stats)
			}
		})
	}
}

// TestDiscoverColumnsDefaultPredicates: with no explicit ℙ, the columnar
// entrypoint must auto-generate the same paper-default predicate space the
// relation entrypoint does, so the minimal call sites stay equivalent too.
func TestDiscoverColumnsDefaultPredicates(t *testing.T) {
	spec := experiments.TaxSpec()
	rel := spec.Gen(300)
	opts := []core.DiscoverOption{
		core.WithSignature(spec.XAttrs, spec.YAttr),
		core.WithMaxBias(spec.RhoM),
	}
	relRes, err := core.Discover(context.Background(), rel, opts...)
	if err != nil {
		t.Fatal(err)
	}
	colRes, err := core.DiscoverColumns(context.Background(), dataset.NewColumnSet(rel), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !experiments.SameRules(relRes.Rules, colRes.Rules, 0) {
		t.Fatal("default-space discovery diverged between entrypoints")
	}
}

// TestDiscoverColumnsRejectsTuplePaths: strategies that resample tuples
// must fail with ErrTuplesRequired on a column-backed run, not panic, and a
// nil ColumnSet is an empty run.
func TestDiscoverColumnsRejectsTuplePaths(t *testing.T) {
	spec := experiments.TaxSpec()
	cs := dataset.NewColumnSet(spec.Gen(50))
	_, err := core.DiscoverColumns(context.Background(), cs,
		core.WithSignature(spec.XAttrs, spec.YAttr),
		core.WithStrategy(induction.Stability{}))
	if !errors.Is(err, core.ErrTuplesRequired) {
		t.Fatalf("stability over columns: err = %v, want ErrTuplesRequired", err)
	}
	if _, err := core.DiscoverColumns(context.Background(), nil); !errors.Is(err, core.ErrEmptyRelation) {
		t.Fatalf("nil columns: err = %v, want ErrEmptyRelation", err)
	}
}
