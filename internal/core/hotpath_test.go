package core

import (
	"context"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// TestParallelEnforcesMaxNodes checks the runaway guard at every worker
// count: queue expansions stop at cfg.MaxNodes, and the remaining parts
// drain as forced rules so the output still covers D (Problem 1).
func TestParallelEnforcesMaxNodes(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	cfg := discoverCfg(rel, 0.05) // tight ρ_M forces deep refinement
	cfg.MaxNodes = 8

	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res, err := Discover(context.Background(), rel, WithConfig(cfg))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.NodesExpanded > cfg.MaxNodes {
			t.Errorf("workers=%d: NodesExpanded = %d exceeds MaxNodes = %d",
				workers, res.Stats.NodesExpanded, cfg.MaxNodes)
		}
		if res.Stats.ForcedRules == 0 {
			t.Errorf("workers=%d: capped run has no forced rules (drain missing)", workers)
		}
		if cov := res.Rules.Coverage(rel); cov != 1 {
			t.Errorf("workers=%d: coverage = %v after MaxNodes drain, want 1", workers, cov)
		}
		if !res.Rules.Holds(rel) {
			t.Errorf("workers=%d: drained rules violated on training data", workers)
		}
	}
}

// TestParallelHonorsProp8Splits: with Prop8Splits, several workers size
// splits by ind(C) like one worker instead of silently falling back to the
// single best cut.
func TestParallelHonorsProp8Splits(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	cfg := discoverCfg(rel, 0.5)
	cfg.Prop8Splits = true

	seq, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*DiscoverResult{"seq": seq, "par": par} {
		if cov := res.Rules.Coverage(rel); cov != 1 {
			t.Errorf("%s coverage = %v", name, cov)
		}
		if !res.Rules.Holds(rel) {
			t.Errorf("%s rules violated on training data", name)
		}
		if res.Stats.NodesExpanded > cfg.MaxNodes && cfg.MaxNodes > 0 {
			t.Errorf("%s expanded %d nodes", name, res.Stats.NodesExpanded)
		}
	}
	// Proposition 8's overlapping children mean the multi-split run explores
	// at least as much as the binary run would; the real assertion is that
	// both worker counts terminate with full coverage.
	if seq.Stats.NodesExpanded == 0 || par.Stats.NodesExpanded == 0 {
		t.Error("degenerate run")
	}
}

// fourRegimeRelation has constant regimes 10, 50, 90, 10 on [0,30), [30,45),
// [45,60), [60,90) over a single attribute. The repeated 10-regime makes
// interior nodes partially shareable (ind(C) > 0), so Prop8 multi-splits
// fire and reach the same semantic condition along different syntactic paths
// (e.g. a>44 ∧ a>59 vs a>29 ∧ a>59, both ≡ a>59).
func fourRegimeRelation() *dataset.Relation {
	s := dataset.MustSchema(
		dataset.Attribute{Name: "A", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
	)
	r := dataset.NewRelation(s)
	for i := 0; i < 90; i++ {
		x := float64(i)
		y := 10.0
		switch {
		case x >= 60:
			y = 10
		case x >= 45:
			y = 90
		case x >= 30:
			y = 50
		}
		r.MustAppend(dataset.Tuple{dataset.Num(x), dataset.Num(y)})
	}
	return r
}

// TestVisitedNormalizesConjunctions is the regression test for the visited
// set keying on Normalize(): equivalent conjunctions reached along different
// refinement paths (redundant bounds like a>44 ∧ a>59) must expand once.
// With cuts only at 29, 44 and 59, every reachable part is one of the at
// most 10 distinct value intervals (root included), so normalized
// deduplication bounds expansions by that count; duplicate spellings of the
// same interval would push past it.
func TestVisitedNormalizesConjunctions(t *testing.T) {
	rel := fourRegimeRelation()
	var preds []predicate.Predicate
	for _, cut := range []float64{29, 44, 59} {
		preds = append(preds,
			predicate.NumPred(0, predicate.Le, cut),
			predicate.NumPred(0, predicate.Gt, cut))
	}
	cfg := DiscoverConfig{
		XAttrs:      []int{0},
		YAttr:       1,
		RhoM:        0.5,
		Preds:       preds,
		Trainer:     regress.LinearTrainer{},
		Prop8Splits: true,
		MinSupport:  1,
	}
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	const maxDistinctParts = 10 // intervals over cut endpoints, root included
	if res.Stats.NodesExpanded > maxDistinctParts {
		t.Errorf("NodesExpanded = %d > %d distinct parts: equivalent conjunctions expanded more than once",
			res.Stats.NodesExpanded, maxDistinctParts)
	}
	if cov := res.Rules.Coverage(rel); cov != 1 {
		t.Errorf("coverage = %v", cov)
	}
	seen := map[string]bool{}
	for _, r := range res.Rules.Rules {
		for _, c := range r.Cond.Conjs {
			key := conjKey(c.Normalize())
			if seen[key] {
				t.Errorf("duplicate rule condition %q: the same part was emitted twice", key)
			}
			seen[key] = true
		}
	}
}

// TestHotPathTelemetry checks the new performance-layer metrics: the Gram
// fast path fires, the column cache serves every expanded node, and the
// share-scan width distribution records per-node scan sizes.
func TestHotPathTelemetry(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	cfg := discoverCfg(rel, 0.5)
	reg := telemetry.New()
	cfg.Telemetry = reg
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricStatReuse]; got == 0 {
		t.Error("stat_reuse = 0: the sufficient-statistics fast path never fired")
	}
	if got := snap.Counters[telemetry.MetricCacheHits]; got < int64(res.Stats.NodesExpanded) {
		t.Errorf("column_cache_hits = %d < NodesExpanded = %d", got, res.Stats.NodesExpanded)
	}
	width := snap.Distributions[telemetry.MetricShareScanWidth]
	if width.Count == 0 {
		t.Error("share_scan_width never observed")
	}
	if width.Count != snap.Counters[telemetry.MetricConditionsExpanded] {
		t.Errorf("scan-width observations = %d, conditions expanded = %d",
			width.Count, snap.Counters[telemetry.MetricConditionsExpanded])
	}

	// The share-test counter must now count single-sweep work: at most one
	// scan per expanded node, never the two full passes of the old code.
	if tests := snap.Counters[telemetry.MetricShareTests]; tests > width.Count*int64(res.Rules.NumModels()) {
		t.Errorf("share_tests = %d exceeds one scan per node over %d models", tests, res.Rules.NumModels())
	}
}

// TestGramPathMatchesFullPassDiscovery is the engine-level byte-identity
// check on the unit-test scale (TestGramPathMatchesFullPassPerDataset runs
// it on the five generators): discovery with the default Gram-capable trainer
// must produce the same rules, in the same order, with weights within 1e-9,
// as the same trainer wrapped in regress.FullPass.
func TestGramPathMatchesFullPassDiscovery(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 1)
	cfg := discoverCfg(rel, 0.5)
	fast, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trainer = regress.FullPass{T: regress.LinearTrainer{}}
	slow, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRules(t, fast.Rules, slow.Rules, 1e-9)
	if fast.Stats != slow.Stats {
		t.Errorf("stats diverged: %+v vs %+v", fast.Stats, slow.Stats)
	}
}

// assertSameRules requires structural identity (count, order, conditions,
// bias) and model weights within tol.
func assertSameRules(t *testing.T, a, b *RuleSet, tol float64) {
	t.Helper()
	if a.NumRules() != b.NumRules() {
		t.Fatalf("rule counts differ: %d vs %d", a.NumRules(), b.NumRules())
	}
	for i := range a.Rules {
		ra, rb := &a.Rules[i], &b.Rules[i]
		if len(ra.Cond.Conjs) != len(rb.Cond.Conjs) {
			t.Fatalf("rule %d: conjunction counts differ", i)
		}
		for j := range ra.Cond.Conjs {
			if conjKey(ra.Cond.Conjs[j]) != conjKey(rb.Cond.Conjs[j]) {
				t.Fatalf("rule %d conj %d: %q vs %q", i, j,
					conjKey(ra.Cond.Conjs[j]), conjKey(rb.Cond.Conjs[j]))
			}
		}
		if diff := ra.Rho - rb.Rho; diff > tol || diff < -tol {
			t.Fatalf("rule %d: ρ differs by %v", i, diff)
		}
		if !ra.Model.Equal(rb.Model, tol) {
			t.Fatalf("rule %d: models differ beyond %v: %v vs %v", i, tol, ra.Model, rb.Model)
		}
	}
}

// TestSeqParParityInvariants runs both engines across option combinations
// and checks the invariants that must hold regardless of worker races.
func TestSeqParParityInvariants(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 6)
	base := discoverCfg(rel, 0.5)
	variants := map[string]func(*DiscoverConfig){
		"default":        func(c *DiscoverConfig) {},
		"prop8":          func(c *DiscoverConfig) { c.Prop8Splits = true },
		"maxnodes":       func(c *DiscoverConfig) { c.MaxNodes = 6 },
		"prop8+maxnodes": func(c *DiscoverConfig) { c.Prop8Splits = true; c.MaxNodes = 6 },
		"nosharing":      func(c *DiscoverConfig) { c.DisableSharing = true },
	}
	for name, mutate := range variants {
		for _, workers := range []int{1, 4} {
			cfg := base
			mutate(&cfg)
			cfg.Workers = workers
			res, err := Discover(context.Background(), rel, WithConfig(cfg))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if cov := res.Rules.Coverage(rel); cov != 1 {
				t.Errorf("%s workers=%d: coverage = %v", name, workers, cov)
			}
			if !res.Rules.Holds(rel) {
				t.Errorf("%s workers=%d: rules violated", name, workers)
			}
			if cfg.MaxNodes > 0 && res.Stats.NodesExpanded > cfg.MaxNodes {
				t.Errorf("%s workers=%d: NodesExpanded %d > MaxNodes %d",
					name, workers, res.Stats.NodesExpanded, cfg.MaxNodes)
			}
			if cfg.DisableSharing && res.Stats.ShareHits != 0 {
				t.Errorf("%s workers=%d: ablated run shared", name, workers)
			}
		}
	}
}
