package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/verify"
)

// The columnar execution core's parity contract, asserted property-style
// across all five synthetic generators with randomized predicate sets and
// injected nulls: vectorized Conjunction/DNF filters must equal Sat row
// scans, ViolationsColumns must equal verify.ViolationsRows, PredictBatch
// must equal per-tuple Predict, and ExplainView must equal
// verify.ExplainRow — all bitwise, over relations with NaN and ±Inf cells
// too.

func propertySpecs() []experiments.DatasetSpec {
	return []experiments.DatasetSpec{
		experiments.TaxSpec(), experiments.ElectricitySpec(), experiments.AbaloneSpec(),
		experiments.AirQualitySpec(), experiments.BirdMapSpec(),
	}
}

// maskedRelation generates n rows of the spec's dataset and masks a slice of
// the target and first condition attribute, so every parity check crosses
// null handling.
func maskedRelation(spec experiments.DatasetSpec, n int, rng *rand.Rand) *dataset.Relation {
	rel := spec.Gen(n).Clone()
	rel.MaskMissing(spec.YAttr, 0.05, rng)
	for _, a := range spec.CondAttrs {
		if rel.Schema.Attr(a).Kind == dataset.Numeric {
			rel.MaskMissing(a, 0.05, rng)
			break
		}
	}
	return rel
}

// checkedRelation is maskedRelation plus non-finite cells: every fifth row
// gets NaN, +Inf or −Inf in one numeric X, condition or target attribute,
// so the classification parity checks cross non-finite values as well as
// nulls (ReadCSV and the binary wire format both carry them).
func checkedRelation(spec experiments.DatasetSpec, n int, rng *rand.Rand) *dataset.Relation {
	rel := maskedRelation(spec, n, rng)
	var attrs []int
	for _, a := range append(append([]int{spec.YAttr}, spec.XAttrs...), spec.CondAttrs...) {
		if rel.Schema.Attr(a).Kind == dataset.Numeric {
			attrs = append(attrs, a)
		}
	}
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 2; i < rel.Len(); i += 5 {
		k := i / 5
		tp := rel.Tuples[i].Clone()
		tp[attrs[k%len(attrs)]] = dataset.Num(vals[k/len(attrs)%len(vals)])
		rel.Tuples[i] = tp
	}
	return rel
}

// sameBits compares two floats bitwise, so NaN matches the same NaN.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randConjunction draws up to three predicates from the generated space.
func randConjunction(preds []predicate.Predicate, rng *rand.Rand) predicate.Conjunction {
	c := predicate.NewConjunction()
	for i, k := 0, 1+rng.Intn(3); i < k; i++ {
		c = c.And(preds[rng.Intn(len(preds))])
	}
	return c
}

func sameSelection(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFilterParityAcrossGenerators: vectorized Conjunction and DNF filters
// vs Sat row scans over every generator's value distribution.
func TestFilterParityAcrossGenerators(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			rel := maskedRelation(spec, 400, rng)
			preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
				Kind: predicate.Binary, Size: 32,
			})
			if len(preds) == 0 {
				t.Fatal("no predicates generated")
			}
			cs := dataset.NewColumnSet(rel)
			full := cs.View().Sel
			for trial := 0; trial < 60; trial++ {
				conj := randConjunction(preds, rng)
				var want []int
				for _, r := range full {
					if conj.Sat(rel.Tuples[r]) {
						want = append(want, r)
					}
				}
				if got := conj.Filter(cs, full, nil); !sameSelection(got, want) {
					t.Fatalf("trial %d: conjunction %v: filter/Sat mismatch", trial, conj)
				}

				var conjs []predicate.Conjunction
				for i, k := 0, rng.Intn(3); i <= k; i++ {
					conjs = append(conjs, randConjunction(preds, rng))
				}
				d := predicate.NewDNF(conjs...)
				want = want[:0]
				for _, r := range full {
					if d.Sat(rel.Tuples[r]) {
						want = append(want, r)
					}
				}
				if got := d.Filter(cs, full, nil); !sameSelection(got, want) {
					t.Fatalf("trial %d: dnf %v: filter/Sat mismatch", trial, d)
				}
			}
		})
	}
}

// discoverRules mines a small rule set for the parity checks.
func discoverRules(t *testing.T, spec experiments.DatasetSpec, rel *dataset.Relation) *core.RuleSet {
	t.Helper()
	preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
		Kind: predicate.Binary, Size: 32,
	})
	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs:  spec.XAttrs,
		YAttr:   spec.YAttr,
		RhoM:    spec.RhoM,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.NumRules() == 0 {
		t.Fatal("no rules discovered")
	}
	return res.Rules
}

// TestViolationsColumnarParity: ViolationsColumns (the engine behind
// Violations) must equal the verify.ViolationsRows reference on every
// generator, including masked-null relations.
func TestViolationsColumnarParity(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			train := spec.Gen(500)
			rules := discoverRules(t, spec, train)
			// Check a shifted, masked slice so violations actually occur.
			check := checkedRelation(spec, 400, rng)
			for i, tp := range check.Tuples {
				if i%7 == 0 && !tp[spec.YAttr].Null {
					nt := tp.Clone()
					nt[spec.YAttr] = dataset.Num(tp[spec.YAttr].Num + 10*spec.RhoM)
					check.Tuples[i] = nt
				}
			}
			want := verify.ViolationsRows(check, rules)
			got := core.Violations(check, rules)
			if len(got) != len(want) {
				t.Fatalf("violations: columnar %d, rows %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.TupleIndex != w.TupleIndex || g.RuleIndex != w.RuleIndex ||
					!sameBits(g.Observed, w.Observed) || !sameBits(g.Predicted, w.Predicted) ||
					!sameBits(g.Excess, w.Excess) || !sameBits(g.Repair, w.Repair) {
					t.Fatalf("violation %d: columnar %+v, rows %+v", i, g, w)
				}
			}
			if len(want) == 0 {
				t.Fatal("no violations produced; parity check vacuous")
			}
		})
	}
}

// TestPredictBatchParity: PredictBatch must equal per-tuple Predict —
// bitwise — on every generator, nulls included.
func TestPredictBatchParity(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			train := spec.Gen(500)
			rules := discoverRules(t, spec, train)
			check := checkedRelation(spec, 400, rng)
			preds, covered := rules.PredictBatch(check)
			for i, tp := range check.Tuples {
				v, ok := rules.Predict(tp)
				if covered[i] != ok || !sameBits(preds[i], v) {
					t.Fatalf("tuple %d: batch (%v, %v), row (%v, %v)", i, preds[i], covered[i], v, ok)
				}
			}
		})
	}
}

// TestExplainViewParity: ExplainView must equal per-tuple
// verify.ExplainRow.
func TestExplainViewParity(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			train := spec.Gen(500)
			rules := discoverRules(t, spec, train)
			check := checkedRelation(spec, 200, rng)
			got := core.ExplainView(dataset.NewColumnSet(check).View(), rules)
			for i, tp := range check.Tuples {
				want := verify.ExplainRow(rules, tp)
				g := got[i]
				if g.Covered != want.Covered || !sameBits(g.Prediction, want.Prediction) || len(g.Matches) != len(want.Matches) {
					t.Fatalf("tuple %d: view %+v, row %+v", i, g, want)
				}
				for j := range want.Matches {
					a, b := g.Matches[j], want.Matches[j]
					if a.RuleIndex != b.RuleIndex || a.ConjIndex != b.ConjIndex ||
						!sameBits(a.Prediction, b.Prediction) || !sameBits(a.Deviation, b.Deviation) ||
						a.Satisfied != b.Satisfied || !a.Builtin.Equal(b.Builtin) {
						t.Fatalf("tuple %d match %d: view %+v, row %+v", i, j, a, b)
					}
				}
			}
		})
	}
}

// TestDiscoveryKernelsVsTuples: the discovery kernels (lanes, trainable
// rows, fallback, part SSE, split children) must match tuple-at-a-time
// references bitwise along the best-split tree under a randomized predicate
// space, nulls included — in a categorical condition attribute too, so
// categorical fans meet null cells.
func TestDiscoveryKernelsVsTuples(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			rel := maskedRelation(spec, 500, rng)
			for _, a := range spec.CondAttrs {
				if rel.Schema.Attr(a).Kind == dataset.Categorical {
					rel.MaskMissing(a, 0.05, rng)
					break
				}
			}
			preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
				Kind: predicate.Binary, Size: 48, Seed: 17,
			})
			detail, err := verify.KernelsVsTuples(context.Background(), rel, core.DiscoverConfig{
				XAttrs:  spec.XAttrs,
				YAttr:   spec.YAttr,
				RhoM:    spec.RhoM,
				Preds:   preds,
				Trainer: regress.LinearTrainer{},
			})
			if err != nil {
				t.Fatal(err)
			}
			if detail != "" {
				t.Fatal(detail)
			}
		})
	}
}
