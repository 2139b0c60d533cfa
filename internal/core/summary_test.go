package core

import (
	"context"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 17)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res.Rules)
	if sum.Rules != res.Rules.NumRules() || sum.Models != res.Rules.NumModels() {
		t.Errorf("summary counts off: %+v", sum)
	}
	if sum.Conjunctions < sum.Rules {
		t.Errorf("conjunctions %d < rules %d", sum.Conjunctions, sum.Rules)
	}
	if sum.Translated == 0 {
		t.Error("no translated windows despite model sharing")
	}
	// ρ exceeds ρ_M only on forced coverage rules (regime-boundary slivers
	// that no predicate can split).
	if sum.MinRho < 0 || sum.MaxRho < sum.MinRho {
		t.Errorf("ρ range [%v, %v] malformed", sum.MinRho, sum.MaxRho)
	}
	if sum.MaxRho > 0.5+1e-9 && res.Stats.ForcedRules == 0 {
		t.Errorf("ρ %v beyond ρ_M without any forced rule", sum.MaxRho)
	}
	if sum.PredsPerConj <= 0 {
		t.Errorf("PredsPerConj = %v", sum.PredsPerConj)
	}
	if !strings.Contains(sum.String(), "rules over") {
		t.Error("String rendering")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := Summarize(&RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1})
	if sum != (Summary{}) {
		t.Errorf("empty summary = %+v", sum)
	}
}

func TestCompareOnEquivalentAfterCompaction(t *testing.T) {
	rel := piecewiseRelation(600, 0.2, 18)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	compacted, _ := compactExact(t, res.Rules)
	d := CompareOn(rel, res.Rules, compacted, 1e-9)
	if !d.Equivalent() {
		t.Errorf("compaction not equivalent: %+v", d)
	}
	if d.Agree != rel.Len() {
		t.Errorf("agree = %d of %d", d.Agree, rel.Len())
	}
}

func TestCompareOnDetectsMismatch(t *testing.T) {
	rel := piecewiseRelation(200, 0.2, 19)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	// An empty rule set disagrees on coverage everywhere a rule matched.
	empty := &RuleSet{Schema: rel.Schema, XAttrs: res.Rules.XAttrs, YAttr: res.Rules.YAttr}
	d := CompareOn(rel, res.Rules, empty, 1e-9)
	if d.Equivalent() || d.CoverageMismatch == 0 {
		t.Errorf("diff missed the coverage gap: %+v", d)
	}
}
