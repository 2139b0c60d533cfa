package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
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
	opt := core.WithConfig(core.DiscoverConfig{XAttrs: spec.XAttrs, YAttr: spec.YAttr, RhoM: spec.RhoM})
	relRes, err := core.Discover(context.Background(), rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	colRes, err := core.DiscoverColumns(context.Background(), dataset.NewColumnSet(rel), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !experiments.SameRules(relRes.Rules, colRes.Rules, 0) {
		t.Fatal("default-space discovery diverged between entrypoints")
	}
}

// TestDiscoverColumnsRejectsTuplePaths: a nil ColumnSet, with neither a
// store nor tuples behind it, is an empty run and fails with
// ErrEmptyRelation rather than a panic.
func TestDiscoverColumnsRejectsTuplePaths(t *testing.T) {
	if _, err := core.DiscoverColumns(context.Background(), nil); !errors.Is(err, core.ErrEmptyRelation) {
		t.Fatalf("nil columns: err = %v, want ErrEmptyRelation", err)
	}
}

// tiedRunsRelation is electricity data in the shape of a column store:
// chunks of rows each generated on its own from seed 1<<20 + i, as the
// store builder writes them, so Time restarts at every chunk and each Time
// value recurs once per chunk. A cut bucket then holds many tied rows.
func tiedRunsRelation(chunks, rows int) *dataset.Relation {
	var rel *dataset.Relation
	for i := 0; i < chunks; i++ {
		cfg := dataset.DefaultElectricityConfig()
		cfg.Rows, cfg.Seed = rows, 1<<20+int64(i)
		chunk := dataset.GenerateElectricity(cfg)
		if rel == nil {
			rel = dataset.NewRelation(chunk.Schema)
		}
		for _, tp := range chunk.Tuples {
			rel.MustAppend(tp)
		}
	}
	return rel
}

// BenchmarkDiscoverTiedRuns is the discovery of discover-ooc-electricity at
// an eighth of its rows: 262,144 electricity rows in four 65,536-row
// chunks, Binary-16 on Time, ρ 0.5, through DiscoverColumns.
func BenchmarkDiscoverTiedRuns(b *testing.B) {
	cs := dataset.NewColumnSet(tiedRunsRelation(4, 1<<16))
	cfg := core.DiscoverConfig{
		XAttrs:  []int{0},
		YAttr:   1,
		RhoM:    0.5,
		Preds:   predicate.GenerateColumns(cs, []int{0}, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 16}),
		Trainer: regress.LinearTrainer{},
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.DiscoverColumns(context.Background(), cs, core.WithConfig(cfg)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
