package stream

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// electricityConfig is the canonical Electricity discovery workload the
// verify and experiments harnesses run — GlobalActivePower ~ Time, mined
// piecewise over time-window conditions from the paper-default 64-predicate
// budget — so the rediscovery baseline reflects the job the maintainer
// actually replaces.
func electricityConfig(rel *dataset.Relation) core.DiscoverConfig {
	return core.DiscoverConfig{
		XAttrs:  []int{0}, // Time
		YAttr:   1,        // GlobalActivePower
		RhoM:    0.5,
		Preds:   predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 64}),
		Trainer: regress.LinearTrainer{},
	}
}

// electricityStream mines the canonical configuration and returns the
// relation + rules both sides of the incremental-vs-rediscovery comparison
// share. The feed cycles the same rows, so the stream is stationary and
// every window stays inside the mined conditions' time range.
func electricityStream(tb testing.TB, rows int) (*dataset.Relation, *core.RuleSet) {
	tb.Helper()
	cfg := dataset.DefaultElectricityConfig()
	cfg.Rows = rows
	rel := dataset.GenerateElectricity(cfg)
	res, err := core.Discover(context.Background(), rel, core.WithConfig(electricityConfig(rel)))
	if err != nil {
		tb.Fatal(err)
	}
	if res.Rules.NumRules() == 0 {
		tb.Fatal("electricity mine produced no rules")
	}
	return rel, res.Rules
}

const (
	benchWindow = 8192
	benchRows   = 16384 // generated feed length (cycled)
	benchAppend = 1000  // rows per maintenance round (the "per 1k appended rows" unit)
)

// BenchmarkStreamMaintain1k: one round of incremental maintenance — 1000
// appends through the Maintainer (rank-1 updates + threshold refits), then a
// flush and a publishable snapshot. It reports the live rules and window
// coverage at the end, so a reader sees how much of the artifact the rounds
// still maintained.
func BenchmarkStreamMaintain1k(b *testing.B) {
	rel, rules := electricityStream(b, benchRows)
	m, err := New(rules, Config{Window: benchWindow, RhoM: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	feed := func() dataset.Tuple {
		tp := rel.Tuples[next]
		next = (next + 1) % rel.Len()
		return tp
	}
	for i := 0; i < benchWindow; i++ {
		if err := m.Append(feed()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchAppend; j++ {
			if err := m.Append(feed()); err != nil {
				b.Fatal(err)
			}
		}
		m.Refit()
		if m.Changed() {
			_ = m.Snapshot()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Live()), "live_rules")
	b.ReportMetric(m.Coverage(), "window_coverage")
}

// BenchmarkStreamRediscover1k: the from-scratch baseline — after each 1000
// appended rows, re-run predicate generation and full discovery over the
// current window, the way a maintainer-less deployment would refresh its
// artifact.
func BenchmarkStreamRediscover1k(b *testing.B) {
	rel, _ := electricityStream(b, benchRows)
	window := make([]dataset.Tuple, 0, benchWindow)
	next := 0
	feed := func() dataset.Tuple {
		tp := rel.Tuples[next]
		next = (next + 1) % rel.Len()
		return tp
	}
	for i := 0; i < benchWindow; i++ {
		window = append(window, feed())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchAppend; j++ {
			window = append(window, feed())
			if len(window) > benchWindow {
				window = window[1:]
			}
		}
		winRel := &dataset.Relation{Schema: rel.Schema, Tuples: window}
		res, err := core.Discover(context.Background(), winRel, core.WithConfig(electricityConfig(winRel)))
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Rules
	}
}

// TestStreamSpeedupOverRediscovery enforces the performance contract the
// benchmarks record: maintaining 1k appended rows incrementally must beat
// re-running discovery over the window by at least 5×. The margin in practice
// is far larger; 5× keeps the gate robust on loaded CI machines. The log
// line also gives the live rules and window coverage after the timed rounds:
// most of this artifact's rules are forced (accepted above ρM at discovery's
// support floor), so ρM retires them and the rounds maintain the few left.
func TestStreamSpeedupOverRediscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	rel, rules := electricityStream(t, benchRows)

	m, err := New(rules, Config{Window: benchWindow, RhoM: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	feed := func() dataset.Tuple {
		tp := rel.Tuples[next]
		next = (next + 1) % rel.Len()
		return tp
	}
	// Warm up with one untimed round: filling the window leaves every rule
	// pending-dirty, so the first round's refit burst (and the allocator
	// growing the queues) is not steady-state behaviour.
	for i := 0; i < benchWindow+benchAppend; i++ {
		if err := m.Append(feed()); err != nil {
			t.Fatal(err)
		}
	}
	m.Refit()
	if m.Changed() {
		_ = m.Snapshot()
	}
	// Best of three timed rounds on each side: scheduling noise on a shared
	// CI machine only ever inflates a measurement, so the minimum is the
	// robust estimator of the true per-round cost.
	incremental := time.Duration(math.MaxInt64)
	for r := 0; r < 3; r++ {
		start := time.Now()
		for j := 0; j < benchAppend; j++ {
			if err := m.Append(feed()); err != nil {
				t.Fatal(err)
			}
		}
		m.Refit()
		if m.Changed() {
			_ = m.Snapshot()
		}
		if d := time.Since(start); d < incremental {
			incremental = d
		}
	}

	winRel := m.Window().Relation()
	rediscovery := time.Duration(math.MaxInt64)
	for r := 0; r < 3; r++ {
		start := time.Now()
		if _, err := core.Discover(context.Background(), winRel, core.WithConfig(electricityConfig(winRel))); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < rediscovery {
			rediscovery = d
		}
	}

	t.Logf("incremental %v vs rediscovery %v per %d appended rows (%.1fx); %d of %d rules live, window coverage %.3f",
		incremental, rediscovery, benchAppend, float64(rediscovery)/float64(incremental),
		m.Live(), rules.NumRules(), m.Coverage())
	if rediscovery < 5*incremental {
		t.Fatalf("incremental maintenance (%v) is not ≥5x faster than rediscovery (%v)",
			incremental, rediscovery)
	}
}
