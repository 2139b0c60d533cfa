package stream

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// taxRules mines Tax ~ Salary | State over a synthetic tax relation — the
// same shape the serving tests use.
func taxRules(t testing.TB, rows int, seed int64) (*dataset.Relation, *core.RuleSet) {
	t.Helper()
	rel := dataset.GenerateTax(dataset.TaxConfig{Rows: rows, Noise: 0.5, Seed: seed})
	state := rel.Schema.MustIndex("State")
	preds := predicate.Generate(rel, []int{state}, predicate.GeneratorConfig{})
	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs:  []int{rel.Schema.MustIndex("Salary")},
		YAttr:   rel.Schema.MustIndex("Tax"),
		RhoM:    60,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.NumRules() < 2 {
		t.Fatalf("tax mine produced %d rules", res.Rules.NumRules())
	}
	return rel, res.Rules
}

// TestMaintainerStationaryStream: on a stream drawn from the training
// distribution the maintainer refits but never retires, coverage stays
// complete, and — the windowed-refit oracle — every rule's carried
// sufficient statistics fit matches a from-scratch re-fit over exactly its
// covered window rows within a 1e-9-scale drift bound.
func TestMaintainerStationaryStream(t *testing.T) {
	rel, rules := taxRules(t, 6000, 4)
	reg := telemetry.New()
	m, err := New(rules, Config{Window: 512, RhoM: 60, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range rel.Tuples {
		if err := m.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.RowsIngested != uint64(rel.Len()) {
		t.Fatalf("ingested %d of %d rows", st.RowsIngested, rel.Len())
	}
	if st.Refits == 0 {
		t.Fatal("stationary stream produced no refits")
	}
	if st.Retires != 0 || st.DriftEvents != 0 {
		t.Fatalf("stationary stream retired rules: %+v", st)
	}
	if got := m.Live(); got != rules.NumRules() {
		t.Fatalf("live rules %d, want %d", got, rules.NumRules())
	}
	if cov := m.Coverage(); cov < 0.99 {
		t.Fatalf("window coverage %v", cov)
	}
	if reg.Counter(telemetry.MetricStreamRowsIngested).Value() != int64(rel.Len()) {
		t.Fatal("telemetry rows_ingested does not match Stats")
	}

	assertCarriedMatchesFresh(t, m)

	if !m.Changed() {
		t.Fatal("refits happened but Changed() is false")
	}
	snap := m.Snapshot()
	if m.Changed() {
		t.Fatal("Snapshot did not clear Changed")
	}
	if snap.NumRules() != rules.NumRules() {
		t.Fatalf("snapshot has %d rules, want %d", snap.NumRules(), rules.NumRules())
	}
	// The published set must satisfy the bias bound on the live window.
	for _, tp := range m.Window().Rows() {
		pred, covered := snap.Predict(tp)
		if covered && math.Abs(tp[snap.YAttr].Num-pred) > 60+1e-9 {
			t.Fatalf("published rule violates ρM on window row: |%v - %v| > 60",
				tp[snap.YAttr].Num, pred)
		}
	}
}

// assertCarriedMatchesFresh is the oracle core: for every live rule, the
// routed cover records, the carried count and the vectorized-filter
// re-selection must agree on the covered rows, and fitting the carried Gram
// vs a freshly accumulated Gram over those rows must agree within 1e-9 of
// the target scale.
func assertCarriedMatchesFresh(t *testing.T, m *Maintainer) {
	t.Helper()
	checked := 0
	for ri := range m.state {
		if m.state[ri].retired {
			continue
		}
		fxs, fys := m.coveredRowsFiltered(ri)
		if m.state[ri].covered != len(fys) {
			t.Fatalf("rule %d: routed count %d vs filtered count %d — the Covering and filter paths disagree",
				ri, m.state[ri].covered, len(fys))
		}
		xs, ys := m.coveredRows(ri)
		if len(ys) != len(fys) {
			t.Fatalf("rule %d: cover records hold %d pairs, filters selected %d",
				ri, len(ys), len(fys))
		}
		for i := range ys {
			if ys[i] != fys[i] {
				t.Fatalf("rule %d pair %d: cover-record y %v vs filtered y %v",
					ri, i, ys[i], fys[i])
			}
			for j := range xs[i] {
				if xs[i][j] != fxs[i][j] {
					t.Fatalf("rule %d pair %d: cover-record x[%d] %v vs filtered %v",
						ri, i, j, xs[i][j], fxs[i][j])
				}
			}
		}
		if len(ys) <= len(m.rules.XAttrs)+1 {
			continue
		}
		fresh := regress.NewGram(len(m.rules.XAttrs))
		scale := 1.0
		for i, x := range xs {
			fresh.Add(x, ys[i])
			if a := math.Abs(ys[i]); a > scale {
				scale = a
			}
		}
		carriedFit, err1 := ols.TrainGram(m.state[ri].gram)
		freshFit, err2 := ols.TrainGram(fresh)
		if err1 != nil || err2 != nil {
			t.Fatalf("rule %d: fits failed: %v / %v", ri, err1, err2)
		}
		for i, x := range xs {
			if d := math.Abs(carriedFit.Predict(x) - freshFit.Predict(x)); d > 1e-9*scale {
				t.Fatalf("rule %d row %d: carried fit drifted %g from fresh fit (bound %g)",
					ri, i, d, 1e-9*scale)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("oracle checked no rules")
	}
}

// TestMaintainerKeepsStationaryTaxRules: rules that hold stay live. The
// artifact is Tax ~ Salary under State and MaritalStatus at ρM 1, compacted
// to 4 rules; fresh rows from the same generator stream through an
// 8,192-row window in 2,500-row chunks, with a Refit after each chunk, at
// the default configuration. Every refit keeps its ρ within ρM, so no rule
// may retire and the window must stay fully covered.
func TestMaintainerKeepsStationaryTaxRules(t *testing.T) {
	if testing.Short() {
		t.Skip("100,000-row stream per seed skipped in -short mode")
	}
	const (
		window = 8192
		chunk  = 2500
		fresh  = 100000
	)
	for seed := int64(1); seed <= 5; seed++ {
		cfg := dataset.DefaultTaxConfig()
		cfg.Rows, cfg.Seed = 16384, seed
		rel := dataset.GenerateTax(cfg)
		res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
			XAttrs: []int{rel.Schema.MustIndex("Salary")},
			YAttr:  rel.Schema.MustIndex("Tax"),
			RhoM:   1,
			Preds: predicate.Generate(rel, []int{rel.Schema.MustIndex("State"), rel.Schema.MustIndex("MaritalStatus")},
				predicate.GeneratorConfig{}),
		}))
		if err != nil {
			t.Fatal(err)
		}
		rules, _, err := core.CompactCtx(context.Background(), res.Rules, core.CompactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rules.NumRules() != 4 {
			t.Fatalf("seed %d: compacted artifact has %d rules, want 4", seed, rules.NumRules())
		}
		m, err := New(rules, Config{Window: window, RhoM: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range rel.Tuples[:window] {
			if err := m.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
		for k := int64(0); k < fresh/chunk; k++ {
			ccfg := dataset.DefaultTaxConfig()
			ccfg.Rows, ccfg.Seed = chunk, 1<<40+seed<<20+k
			for _, tp := range dataset.GenerateTax(ccfg).Tuples {
				if err := m.Append(tp); err != nil {
					t.Fatal(err)
				}
			}
			m.Refit()
		}
		st := m.Stats()
		if st.Retires != 0 || m.Live() != 4 {
			t.Errorf("seed %d: %d retires, %d of 4 rules live, window coverage %.3f (%+v)",
				seed, st.Retires, m.Live(), m.Coverage(), st)
		} else if cov := m.Coverage(); cov != 1 {
			t.Errorf("seed %d: window coverage %v, want 1", seed, cov)
		}
	}
}

// TestMaintainerDriftRetires: when the stream's generating process changes
// beyond ρM, refits break the bias bound, the independently re-derived
// selection confirms it, and the affected rules retire; snapshots stop
// serving them.
func TestMaintainerDriftRetires(t *testing.T) {
	rel, rules := taxRules(t, 6000, 4)
	m, err := New(rules, Config{Window: 512, RhoM: 60})
	if err != nil {
		t.Fatal(err)
	}
	tax := rel.Schema.MustIndex("Tax")
	for i, tp := range rel.Tuples {
		if i >= 2000 {
			// Regime change: a new tax schedule, far outside ρM = 60.
			tp = tp.Clone()
			tp[tax] = dataset.Num(tp[tax].Num*1.3 + 500)
		}
		if err := m.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Retires == 0 {
		t.Fatalf("drifted stream retired nothing: %+v", st)
	}
	if m.Live() == rules.NumRules() {
		t.Fatal("no rule left the live set despite the regime change")
	}
	snap := m.Snapshot()
	if snap.NumRules() != m.Live() {
		t.Fatalf("snapshot serves %d rules, live %d", snap.NumRules(), m.Live())
	}
}

// TestMaintainerNullCells: null targets and null inputs flow through
// ingestion without corrupting the carried statistics or the fallback mean.
func TestMaintainerNullCells(t *testing.T) {
	rel, rules := taxRules(t, 3000, 7)
	m, err := New(rules, Config{Window: 256, RhoM: 60})
	if err != nil {
		t.Fatal(err)
	}
	salary, tax := rel.Schema.MustIndex("Salary"), rel.Schema.MustIndex("Tax")
	for i, tp := range rel.Tuples {
		switch i % 7 {
		case 3:
			tp = tp.Clone()
			tp[tax] = dataset.Null()
		case 5:
			tp = tp.Clone()
			tp[salary] = dataset.Null()
		}
		if err := m.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	// yCount must equal the non-null targets in the live window exactly.
	wantY := 0
	var wantSum float64
	for _, tp := range m.Window().Rows() {
		if !tp[tax].Null {
			wantY++
			wantSum += tp[tax].Num
		}
	}
	if m.yCount != wantY {
		t.Fatalf("fallback count %d, want %d", m.yCount, wantY)
	}
	assertCarriedMatchesFresh(t, m)
	snap := m.Snapshot()
	if want := wantSum / float64(wantY); math.Abs(snap.Fallback-want) > 1e-9*math.Abs(want) {
		t.Fatalf("fallback %v, want window mean %v", snap.Fallback, want)
	}
}

// TestMaintainerSingularStatisticsRecover: a rule whose covered rows are
// degenerate (constant X → singular normal equations) exercises the
// fallback chain — failed solve, fresh rebuild, retry. Whatever the retry
// outcome (the rebuilt system may solve within float noise or keep failing),
// the rule must never be retired and must never serve a garbage model.
func TestMaintainerSingularStatisticsRecover(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric},
	)
	orig := regress.NewLinear(1, 2)
	rules := &core.RuleSet{
		Schema: schema,
		XAttrs: []int{0},
		YAttr:  1,
		Rules: []core.CRR{{
			Model:  orig,
			Rho:    10,
			Cond:   predicate.DNF{Conjs: []predicate.Conjunction{{}}},
			XAttrs: []int{0},
			YAttr:  1,
		}},
	}
	m, err := New(rules, Config{Window: 64, RhoM: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tp := dataset.Tuple{dataset.Num(5), dataset.Num(11 + 0.001*float64(i%3))}
		if err := m.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Rebuilds == 0 {
		t.Fatal("singular statistics never triggered a rebuild")
	}
	if st.Retires != 0 {
		t.Fatalf("degenerate rule was retired: %+v", st)
	}
	// All observed targets sit in [11, 11.002] at x=5; any served model —
	// original or legitimately refit — must predict there, not emit debris
	// from a near-singular solve.
	if got := m.rules.Rules[0].Model.Predict([]float64{5}); math.Abs(got-11) > 0.01 {
		t.Fatalf("served model predicts %v at x=5, want ≈11", got)
	}
}

// TestMaintainerConfigValidation: the required knobs are enforced.
func TestMaintainerConfigValidation(t *testing.T) {
	_, rules := taxRules(t, 400, 4)
	cases := []Config{
		{Window: 0, RhoM: 1},
		{Window: 10, RhoM: 0},
	}
	for i, cfg := range cases {
		if _, err := New(rules, cfg); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
	if _, err := New(nil, Config{Window: 10, RhoM: 1}); err == nil {
		t.Error("nil rule set accepted")
	}
}

// TestNewRefusesNonOLSFamilies: the maintainer refits with OLS, so a ridge
// (F2) or MLP (F3) artifact must be refused at load instead of coming back
// as OLS rules after the first refit.
func TestNewRefusesNonOLSFamilies(t *testing.T) {
	rel := dataset.GenerateTax(dataset.TaxConfig{Rows: 600, Noise: 0.5, Seed: 4})
	state := rel.Schema.MustIndex("State")
	for _, trainer := range []regress.Trainer{regress.LinearTrainer{Ridge: 1}, regress.NewMLPTrainer(1)} {
		res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
			XAttrs:  []int{rel.Schema.MustIndex("Salary")},
			YAttr:   rel.Schema.MustIndex("Tax"),
			RhoM:    60,
			Preds:   predicate.Generate(rel, []int{state}, predicate.GeneratorConfig{}),
			Trainer: trainer,
		}))
		if err != nil {
			t.Fatal(err)
		}
		family := res.Rules.Rules[0].Model.Family()
		if _, err := New(res.Rules, Config{Window: 512, RhoM: 60}); !errors.Is(err, ErrModelFamily) {
			t.Errorf("%s rules: err = %v, want ErrModelFamily", family, err)
		}
	}
}
