package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// TestLatticePartitionsTrainableRows pins the property the lattice's search
// rests on, and the reason it needs neither deduplication nor a node cap:
// every split partitions its part, so the search is a partition tree of the
// trainable rows. Each trainable row then satisfies exactly one (rule,
// conjunction) of the result, FuseShared or not, and a tree whose inner
// nodes have at least two children has at most 2·|trainable| − 1 nodes. It
// runs every generator, with nulls and with non-finite cells, in the binary
// and the paper-default predicate spaces, under every queue order and one
// or two workers.
func TestLatticePartitionsTrainableRows(t *testing.T) {
	const rows = 1200
	relations := []struct {
		name string
		make func(experiments.DatasetSpec, int, *rand.Rand) *dataset.Relation
	}{
		{"null-masked", maskedRelation},
		{"non-finite", checkedRelation},
	}
	spaces := []struct {
		name string
		cfg  predicate.GeneratorConfig
	}{
		{"binary-64", predicate.GeneratorConfig{Kind: predicate.Binary, Size: 64}},
		{"default", predicate.GeneratorConfig{}},
	}
	for _, spec := range propertySpecs() {
		for _, rk := range relations {
			rel := rk.make(spec, rows, rand.New(rand.NewSource(29)))
			cs := dataset.NewColumnSet(rel)
			trainable := trainableRowsOf(cs, spec.XAttrs, spec.YAttr)
			for _, space := range spaces {
				preds := predicate.Generate(rel, spec.CondAttrs, space.cfg)
				for _, order := range []core.QueueOrder{core.Decrease, core.Increase, core.RandomOrder} {
					for _, workers := range []int{1, 2} {
						for _, fuse := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%s/%v/workers=%d/fuse=%v",
								spec.Name, rk.name, space.name, order, workers, fuse)
							res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
								XAttrs:     spec.XAttrs,
								YAttr:      spec.YAttr,
								RhoM:       spec.RhoM,
								Preds:      preds,
								Trainer:    regress.LinearTrainer{},
								Order:      order,
								Seed:       7,
								Workers:    workers,
								FuseShared: fuse,
							}))
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							checkPartition(t, name, cs, trainable, res)
						}
					}
				}
			}
		}
	}
}

// checkPartition requires every trainable row to satisfy exactly one
// (rule, conjunction) of res, and the search to have expanded at most
// 2·|trainable| − 1 nodes.
func checkPartition(t *testing.T, name string, cs *dataset.ColumnSet, trainable []int, res *core.DiscoverResult) {
	t.Helper()
	if n := res.Stats.NodesExpanded; n > 2*len(trainable)-1 {
		t.Fatalf("%s: NodesExpanded = %d > 2·%d − 1", name, n, len(trainable))
	}
	hits := make([]int, cs.Len())
	var sel []int
	for _, r := range res.Rules.Rules {
		for _, conj := range r.Cond.Conjs {
			sel = conj.Filter(cs, trainable, sel)
			for _, row := range sel {
				hits[row]++
			}
		}
	}
	for _, row := range trainable {
		if hits[row] != 1 {
			t.Fatalf("%s: trainable row %d satisfies %d (rule, conjunction) pairs, want 1", name, row, hits[row])
		}
	}
}

// trainableRowsOf returns the rows whose X and Y cells are all non-null and
// finite: the rows discovery trains on and must cover.
func trainableRowsOf(cs *dataset.ColumnSet, xattrs []int, yattr int) []int {
	attrs := append([]int{yattr}, xattrs...)
	var out []int
rows:
	for i := 0; i < cs.Len(); i++ {
		for _, a := range attrs {
			if v := cs.Float(a)[i]; cs.IsNull(a, i) || math.IsNaN(v) || math.IsInf(v, 0) {
				continue rows
			}
		}
		out = append(out, i)
	}
	return out
}
