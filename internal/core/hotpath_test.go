package core

import (
	"context"
	"testing"

	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

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
		"default":   func(c *DiscoverConfig) {},
		"nosharing": func(c *DiscoverConfig) { c.DisableSharing = true },
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
			if cfg.DisableSharing && res.Stats.ShareHits != 0 {
				t.Errorf("%s workers=%d: ablated run shared", name, workers)
			}
		}
	}
}
