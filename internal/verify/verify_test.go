package verify

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/telemetry"
)

// targetFromSpec builds a small verification target from an experiment
// dataset spec.
func targetFromSpec(spec experiments.DatasetSpec, rows int) Target {
	return Target{
		Name:       spec.Name,
		Rel:        spec.Gen(rows),
		XAttrs:     spec.XAttrs,
		YAttr:      spec.YAttr,
		CondAttrs:  spec.CondAttrs,
		RhoM:       spec.RhoM,
		CompactTol: spec.CompactTol,
	}
}

// TestRunBirdMap runs the full oracle matrix (serve parity included) on a
// small BirdMap slice and expects zero divergences.
func TestRunBirdMap(t *testing.T) {
	reg := telemetry.New()
	rep, err := Run(context.Background(), []Target{targetFromSpec(experiments.BirdMapSpec(), 400)}, Options{
		Seed:      1,
		Telemetry: reg,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("divergences: %+v", rep.Datasets[0].Divergences)
	}
	if rep.OraclesRun == 0 {
		t.Fatal("no oracles ran")
	}
	dr := rep.Datasets[0]
	if dr.Rules == 0 || dr.SoundnessApps == 0 {
		t.Fatalf("expected discovered rules and compaction applications, got %+v", dr)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricVerifyOraclesRun]; got != int64(rep.OraclesRun) {
		t.Fatalf("telemetry oracles_run = %d, report says %d", got, rep.OraclesRun)
	}
	if got := snap.Counters[telemetry.MetricVerifyDivergences]; got != 0 {
		t.Fatalf("telemetry divergences = %d, want 0", got)
	}
}

// TestRunTaxQuick covers a categorical-condition dataset with the expensive
// suites skipped (the path cmd/crrverify -quick exercises).
func TestRunTaxQuick(t *testing.T) {
	rep, err := Run(context.Background(), []Target{targetFromSpec(experiments.TaxSpec(), 400)}, Options{
		Seed:            1,
		SkipServe:       true,
		SkipMetamorphic: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("divergences: %+v", rep.Datasets[0].Divergences)
	}
}

// TestRunRespectsCancel verifies that a canceled context aborts the run with
// the context error rather than a divergence report.
func TestRunRespectsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, []Target{targetFromSpec(experiments.AbaloneSpec(), 100)}, Options{}); err == nil {
		t.Fatal("Run on canceled context succeeded")
	}
}

func TestDiffRuleSets(t *testing.T) {
	spec := experiments.ElectricitySpec()
	tgt := targetFromSpec(spec, 300)
	cfg := baseConfig(tgt, tgt.Rel, 64)
	res, err := core.Discover(context.Background(), tgt.Rel, core.WithConfig(cfg))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	a := res.Rules
	if a.NumRules() == 0 {
		t.Fatal("no rules discovered")
	}
	if d := diffRuleSets(a, a); d != "" {
		t.Fatalf("self-diff: %s", d)
	}

	res2, err := core.Discover(context.Background(), tgt.Rel, core.WithConfig(cfg))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	b := res2.Rules
	if d := diffRuleSets(a, b); d != "" {
		t.Fatalf("re-discovery diff: %s", d)
	}

	b.Rules[0].Rho = a.Rules[0].Rho + 1e-12
	if d := diffRuleSets(a, b); !strings.Contains(d, "ρ") {
		t.Fatalf("ρ perturbation not detected: %q", d)
	}
	b.Rules[0].Rho = a.Rules[0].Rho
	b.Fallback++
	if d := diffRuleSets(a, b); !strings.Contains(d, "fallback") {
		t.Fatalf("fallback perturbation not detected: %q", d)
	}
}

func TestDriftBoundScalesWithDomain(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric},
	)
	rel := dataset.NewRelation(schema)
	rel.MustAppend(dataset.Tuple{dataset.Num(-200), dataset.Num(1)})
	rel.MustAppend(dataset.Tuple{dataset.Num(50), dataset.Num(2)})
	rel.MustAppend(dataset.Tuple{dataset.Null(), dataset.Num(3)})
	if got, want := xScale(rel, []int{0}), 201.0; got != want {
		t.Fatalf("xScale = %g, want %g", got, want)
	}
	if b := driftBound(0.01, 201); b < 2*0.01*201 {
		t.Fatalf("driftBound %g below 2·tol·scale", b)
	}
}

// kernelFixture is a ten-row x → y relation with y = x².
func kernelFixture() *dataset.Relation {
	rel := dataset.NewRelation(dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric},
	))
	for i := 0; i < 10; i++ {
		rel.MustAppend(dataset.Tuple{dataset.Num(float64(i)), dataset.Num(float64(i * i))})
	}
	return rel
}

// TestKernelOracleCatchesWrongSide: the node comparison must report a child
// missing its last row, a numeric group that does not partition the part
// (even when the reference agrees), groups out of the reference's order
// and an SSE one ulp off, naming the node and the predicate.
func TestKernelOracleCatchesWrongSide(t *testing.T) {
	rel := kernelFixture()
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	le := predicate.NumPred(0, predicate.Le, 4.5)
	gt := predicate.NumPred(0, predicate.Gt, 4.5)
	sse := tupleSSE(rel, rows, 1)
	good := [][]core.SplitChild{{{Pred: le, Rows: rows[:5]}, {Pred: gt, Rows: rows[5:]}}}
	if d := checkNode(rel, 1, 3, "⊤", rows, sse, good, good); d != "" {
		t.Fatalf("agreeing node reported: %s", d)
	}

	dropped := [][]core.SplitChild{{{Pred: le, Rows: rows[:4]}, {Pred: gt, Rows: rows[5:]}}}
	d := checkNode(rel, 1, 3, "⊤", rows, sse, dropped, good)
	if !strings.Contains(d, "node 3") || !strings.Contains(d, le.String()) {
		t.Fatalf("dropped row not reported with node and predicate: %q", d)
	}
	d = checkNode(rel, 1, 4, "⊤", rows, sse, dropped, dropped)
	if !strings.Contains(d, "node 4") || !strings.Contains(d, "selects 9 of 10 rows") {
		t.Fatalf("numeric group missing a row not reported as a broken partition: %q", d)
	}

	le2, gt2 := predicate.NumPred(0, predicate.Le, 2.5), predicate.NumPred(0, predicate.Gt, 2.5)
	other := []core.SplitChild{{Pred: le2, Rows: rows[:3]}, {Pred: gt2, Rows: rows[3:]}}
	d = checkNode(rel, 1, 5, "⊤", rows, sse, [][]core.SplitChild{other, good[0]}, [][]core.SplitChild{good[0], other})
	if !strings.Contains(d, "node 5") || !strings.Contains(d, "reference "+le.String()) {
		t.Fatalf("groups out of the reference order not reported: %q", d)
	}

	cond := "⊤ ∧ " + gt.String()
	d = checkNode(rel, 1, 7, cond, rows, math.Nextafter(sse, math.Inf(1)), nil, nil)
	if !strings.Contains(d, "node 7") || !strings.Contains(d, gt.String()) || !strings.Contains(d, "SSE") {
		t.Fatalf("SSE one ulp off not reported with node and predicate: %q", d)
	}
}

// TestKernelOracleCatchesLaneDrift: a walk whose tuple reference disagrees
// with the columns discovery reads must report the lane.
func TestKernelOracleCatchesLaneDrift(t *testing.T) {
	rel := kernelFixture()
	drift := rel.Clone()
	drift.Tuples[6] = dataset.Tuple{dataset.Num(6), dataset.Num(math.Nextafter(36, 0))}
	k := &kernelWalk{rel: drift}
	preds := predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{Kind: predicate.Binary})
	if _, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs: []int{0}, YAttr: 1, Preds: preds, Strategy: k,
	})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k.detail, "attr 1 row 6") {
		t.Fatalf("lane drift not reported: %q", k.detail)
	}
}
