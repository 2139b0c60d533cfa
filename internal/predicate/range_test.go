package predicate

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
)

// rangeTestRelation builds a relation with nullable numeric and categorical
// columns, the categorical domain wide enough to spill the dictionary map.
func rangeTestRelation(n int, seed int64) *dataset.Relation {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Kind: dataset.Categorical},
	)
	rng := rand.New(rand.NewSource(seed))
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		x := dataset.Num(rng.NormFloat64())
		if rng.Intn(9) == 0 {
			x = dataset.Null()
		}
		c := dataset.Str(fmt.Sprintf("v%d", rng.Intn(25)))
		if rng.Intn(11) == 0 {
			c = dataset.Null()
		}
		rel.MustAppend(dataset.Tuple{x, c})
	}
	return rel
}

// TestGenerateColumnsParity: predicate generation over a ColumnSet must
// produce exactly the predicates generation over the source relation does,
// for every generator kind — the out-of-core discovery path depends on the
// predicate spaces being interchangeable.
func TestGenerateColumnsParity(t *testing.T) {
	rel := rangeTestRelation(400, 7)
	cs := dataset.NewColumnSet(rel)
	attrs := []int{0, 1}
	configs := []GeneratorConfig{
		{Kind: Binary, Size: 16},
		{Kind: Binary, Size: 0},
		{Kind: Random, Size: 8, Seed: 42},
		{Kind: Expert, Size: 8, ExpertCuts: map[int][]float64{0: {0.5, -0.5}}},
	}
	for _, cfg := range configs {
		want := Generate(rel, attrs, cfg)
		got := GenerateColumns(cs, attrs, cfg)
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: %d preds vs %d", cfg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cfg %+v pred %d: %v vs %v", cfg, i, got[i], want[i])
			}
		}
	}
}
