package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/induction"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
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

// TestFilterParityAcrossGenerators: vectorized Conjunction filters vs Sat
// row scans over every generator's value distribution.
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
// categorical fans meet null cells. The last input has the out-of-core
// shape: electricity chunks whose Time restarts, so cut buckets hold many
// tied rows, under Binary-16 and under the default space.
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
	rel := tiedRunsRelation(4, 2048)
	for _, space := range []struct {
		name string
		cfg  predicate.GeneratorConfig
	}{{"binary16", predicate.GeneratorConfig{Kind: predicate.Binary, Size: 16}}, {"default", predicate.GeneratorConfig{}}} {
		t.Run("ElectricityTiedRuns/"+space.name, func(t *testing.T) {
			detail, err := verify.KernelsVsTuples(context.Background(), rel, core.DiscoverConfig{
				XAttrs:  []int{0},
				YAttr:   1,
				RhoM:    0.5,
				Preds:   predicate.Generate(rel, []int{0}, space.cfg),
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

// TestGramPathMatchesFullPassPerDataset is the five-dataset identity check
// of the discovery hot path: sequential discovery with the Gram fast path
// must produce the same rules, in the same order, with weights within 1e-9,
// and the same Stats as the same trainer wrapped in regress.FullPass, which
// re-fits every part from its design matrix. The fast path must fire on
// some dataset, or the check compares the full pass with itself.
func TestGramPathMatchesFullPassPerDataset(t *testing.T) {
	reused := false
	for _, spec := range propertySpecs() {
		rel := spec.Gen(600)
		reg := telemetry.New()
		cfg := core.DiscoverConfig{
			XAttrs: spec.XAttrs,
			YAttr:  spec.YAttr,
			RhoM:   spec.RhoM,
			Preds: predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
				Kind: predicate.Binary, Size: 64,
			}),
			Trainer:   regress.LinearTrainer{},
			Telemetry: reg,
		}
		fast, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
		if err != nil {
			t.Fatalf("%s (fast): %v", spec.Name, err)
		}
		cfg.Trainer = regress.FullPass{T: regress.LinearTrainer{}}
		cfg.Telemetry = nil
		full, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
		if err != nil {
			t.Fatalf("%s (full pass): %v", spec.Name, err)
		}
		if fast.Rules.NumRules() == 0 {
			t.Errorf("%s: no rules discovered", spec.Name)
		}
		if !experiments.SameRules(fast.Rules, full.Rules, 1e-9) {
			t.Errorf("%s: fast and full-pass rules diverged", spec.Name)
		}
		if fast.Stats != full.Stats {
			t.Errorf("%s: stats diverged: %+v vs %+v", spec.Name, fast.Stats, full.Stats)
		}
		if reg.Snapshot().Counters[telemetry.MetricStatReuse] > 0 {
			reused = true
		}
	}
	if !reused {
		t.Error("sufficient-statistics fast path never fired across all datasets")
	}
}

// conditionGapRelation is 400 rows of Y = X + a step in the numeric
// condition C + an offset for tag "b", with C replaced by gap (null or NaN)
// on every 37th odd row. C is not an X attribute, so those rows stay
// trainable; only parts of tag "b" hold them, so the numeric splits on C
// stay applicable under tag "a".
func conditionGapRelation(gap dataset.Value) *dataset.Relation {
	rel := dataset.NewRelation(dataset.MustSchema(
		dataset.Attribute{Name: "X", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
		dataset.Attribute{Name: "C", Kind: dataset.Numeric},
		dataset.Attribute{Name: "G", Kind: dataset.Categorical},
	))
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 400; i++ {
		x, c, tag := 10*rng.Float64(), float64(i%50), "a"
		y := x + 0.01*rng.Float64()
		if c >= 25 {
			y += 5
		}
		cell := dataset.Num(c)
		if i%2 == 1 {
			tag = "b"
			y += 10
			if i%37 == 0 {
				cell = gap
			}
		}
		rel.MustAppend(dataset.Tuple{dataset.Num(x), dataset.Num(y), cell, dataset.Str(tag)})
	}
	return rel
}

// TestDiscoverCoversNullAndNaNConditionCells: a numeric cut pair selects no
// row whose condition cell is null or NaN, so it must not split a part
// holding one. Both lattice engines and growprune must still cover every
// trainable row and split on C where the part allows it, and the kernel oracle must find every
// split group a partition that matches its reference scorer.
func TestDiscoverCoversNullAndNaNConditionCells(t *testing.T) {
	for _, gap := range []struct {
		name string
		cell dataset.Value
	}{{"null", dataset.Null()}, {"NaN", dataset.Num(math.NaN())}} {
		rel := conditionGapRelation(gap.cell)
		cfg := core.DiscoverConfig{
			XAttrs:  []int{0},
			YAttr:   1,
			RhoM:    0.1,
			Preds:   predicate.Generate(rel, []int{2, 3}, predicate.GeneratorConfig{}),
			Trainer: regress.LinearTrainer{},
		}
		for _, engine := range []struct {
			name     string
			workers  int
			strategy core.Strategy
		}{
			{"sequential", 1, nil},
			{"parallel", 2, nil},
			{"growprune", 0, induction.GrowPrune{}},
		} {
			t.Run(gap.name+"/"+engine.name, func(t *testing.T) {
				cfg := cfg
				cfg.Workers, cfg.Strategy = engine.workers, engine.strategy
				res, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
				if err != nil {
					t.Fatal(err)
				}
				_, covered := res.Rules.PredictView(dataset.NewColumnSet(rel).View())
				uncovered := 0
				for _, ok := range covered {
					if !ok {
						uncovered++
					}
				}
				if uncovered > 0 {
					t.Fatalf("%d of %d trainable rows uncovered", uncovered, rel.Len())
				}
				splitOnC := false
				for _, r := range res.Rules.Rules {
					for _, c := range r.Cond.Conjs {
						for _, p := range c.Preds {
							splitOnC = splitOnC || p.Attr == 2
						}
					}
				}
				if !splitOnC {
					t.Fatal("no rule splits on C, though tag \"a\" parts hold no gap")
				}
			})
		}
		t.Run(gap.name+"/kernels", func(t *testing.T) {
			detail, err := verify.KernelsVsTuples(context.Background(), rel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if detail != "" {
				t.Fatal(detail)
			}
		})
	}
}

// nonFiniteRow is the row nonFiniteRelation poisons.
const nonFiniteRow = 123

// nonFiniteRelation is 400 rows of Y = 2X + U(0, 1) with a numeric
// condition C = i mod 40, where row nonFiniteRow holds v in column col (0
// is X, 1 is Y).
func nonFiniteRelation(col int, v float64) *dataset.Relation {
	rel := dataset.NewRelation(dataset.MustSchema(
		dataset.Attribute{Name: "X", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
		dataset.Attribute{Name: "C", Kind: dataset.Numeric},
	))
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 400; i++ {
		x := 10 * rng.Float64()
		tp := dataset.Tuple{dataset.Num(x), dataset.Num(2*x + rng.Float64()), dataset.Num(float64(i % 40))}
		if i == nonFiniteRow {
			tp[col] = dataset.Num(v)
		}
		rel.MustAppend(tp)
	}
	return rel
}

// TestDiscoverSkipsNonFiniteCells: a NaN or ±Inf X or Y cell can be neither
// fit nor checked, so its row is not trainable. At the parent one NaN Y
// made every engine return a single ⊤ rule with NaN weights, ρ 0 and a NaN
// fallback, +Inf Y the same with an infinite fallback, and one NaN X failed
// the run with a singular matrix. Every weight, ρ and fallback must be
// finite, and every other row covered and held.
func TestDiscoverSkipsNonFiniteCells(t *testing.T) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, poison := range []struct {
		name string
		col  int
		v    float64
	}{{"NaN-Y", 1, math.NaN()}, {"Inf-Y", 1, math.Inf(1)}, {"NaN-X", 0, math.NaN()}, {"-Inf-X", 0, math.Inf(-1)}} {
		rel := nonFiniteRelation(poison.col, poison.v)
		cs := dataset.NewColumnSet(rel)
		cfg := core.DiscoverConfig{
			XAttrs:  []int{0},
			YAttr:   1,
			RhoM:    0.3,
			Preds:   predicate.Generate(rel, []int{2}, predicate.GeneratorConfig{}),
			Trainer: regress.LinearTrainer{},
		}
		for _, engine := range []struct {
			name     string
			workers  int
			strategy core.Strategy
		}{
			{"sequential", 1, nil},
			{"parallel", 2, nil},
			{"growprune", 0, induction.GrowPrune{}},
		} {
			t.Run(poison.name+"/"+engine.name, func(t *testing.T) {
				cfg := cfg
				cfg.Workers, cfg.Strategy = engine.workers, engine.strategy
				res, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
				if err != nil {
					t.Fatal(err)
				}
				rules := res.Rules
				if !finite(rules.Fallback) {
					t.Fatalf("fallback %v", rules.Fallback)
				}
				for ri, r := range rules.Rules {
					w := r.Model.(*regress.Linear).W
					for _, v := range append([]float64{r.Rho}, w...) {
						if !finite(v) {
							t.Fatalf("rule %d: ρ %v, weights %v", ri, r.Rho, w)
						}
					}
				}
				_, covered := rules.PredictView(cs.View())
				for row, ok := range covered {
					if !ok && row != nonFiniteRow {
						t.Fatalf("row %d is not covered", row)
					}
				}
				for _, v := range core.ViolationsColumns(cs, rules) {
					if v.TupleIndex != nonFiniteRow {
						t.Fatalf("row %d violates rule %d: |%v − %v| > ρ", v.TupleIndex, v.RuleIndex, v.Observed, v.Predicted)
					}
				}
			})
		}
	}
}
