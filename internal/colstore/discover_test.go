package colstore_test

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/crrlab/crr/internal/colstore"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// TestDiscoverOverStoreBitwise is the end-to-end out-of-core contract: mine
// rules from an mmap'd on-disk store (built with a small chunk budget, so
// the build really streams) and from the in-memory relation, and require the
// outputs bitwise-identical — conditions, ρ bits and model coefficients.
func TestDiscoverOverStoreBitwise(t *testing.T) {
	for _, spec := range []experiments.DatasetSpec{
		experiments.TaxSpec(), experiments.ElectricitySpec(), experiments.AbaloneSpec(),
		experiments.AirQualitySpec(), experiments.BirdMapSpec(),
	} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rel := spec.Gen(600)
			dir := filepath.Join(t.TempDir(), "store")
			if err := colstore.Build(dir, rel, 97); err != nil {
				t.Fatal(err)
			}
			st, err := colstore.OpenWith(dir, colstore.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

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
			memRes, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			stRes, err := core.DiscoverColumns(context.Background(), st.Columns(), core.WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if !experiments.SameRules(memRes.Rules, stRes.Rules, 0) {
				t.Fatal("in-memory and store-backed discovery output not bitwise-identical")
			}
			if memRes.Stats != stRes.Stats {
				t.Fatalf("stats diverged: memory %+v, store %+v", memRes.Stats, stRes.Stats)
			}
		})
	}
}
