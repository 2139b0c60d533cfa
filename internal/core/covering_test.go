package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
)

// coveringScan is the linear-scan reference: for every rule, its first
// conjunction satisfying t, requiring non-null X cells.
func coveringScan(s *RuleSet, t dataset.Tuple) []CoveringEntry {
	var out []CoveringEntry
rules:
	for ri := range s.Rules {
		rule := &s.Rules[ri]
		for _, attr := range rule.XAttrs {
			if t[attr].Null {
				continue rules
			}
		}
		for ci := range rule.Cond.Conjs {
			if rule.Cond.Conjs[ci].Sat(t) {
				out = append(out, CoveringEntry{Rule: ri, Conj: ci})
				continue rules
			}
		}
	}
	return out
}

// TestCoveringMatchesLinearScan: the index-driven Covering walk equals the
// reference scan on every tuple of a discovered rule set, nulls included.
func TestCoveringMatchesLinearScan(t *testing.T) {
	rel := dataset.GenerateTax(dataset.TaxConfig{Rows: 600, Seed: 5, Noise: 20})
	salary := rel.Schema.MustIndex("Salary")
	tax := rel.Schema.MustIndex("Tax")
	res, err := Discover(context.Background(), rel,
		WithSignature([]int{salary}, tax), WithMaxBias(60))
	if err != nil {
		t.Fatal(err)
	}
	rules := res.Rules
	if rules.NumRules() < 2 {
		t.Fatalf("want several rules, got %d", rules.NumRules())
	}
	var buf []CoveringEntry
	check := func(tp dataset.Tuple) {
		t.Helper()
		buf = rules.Covering(tp, buf)
		want := coveringScan(rules, tp)
		if len(buf) != len(want) {
			t.Fatalf("covering count %d vs %d for %v", len(buf), len(want), tp)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("covering[%d] = %+v vs %+v for %v", i, buf[i], want[i], tp)
			}
		}
	}
	for _, tp := range rel.Tuples {
		check(tp)
	}
	// Null X and null condition cells.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		tp := rel.Tuples[rng.Intn(rel.Len())].Clone()
		tp[salary] = dataset.Null()
		check(tp)
	}
	// Out-of-grid and infinite values exercise the clamped bucket edges; NaN
	// fails every bound, so like null it must pick no bucket.
	for _, v := range []float64{-1e12, 1e12, math.Inf(-1), math.Inf(1), math.NaN()} {
		tp := rel.Tuples[0].Clone()
		tp[salary] = dataset.Num(v)
		check(tp)
	}
}

// TestCoveringRecyclesBuffer: the dst contract — recycled when capacity
// allows, no aliasing surprises.
func TestCoveringRecyclesBuffer(t *testing.T) {
	rel := dataset.GenerateTax(dataset.TaxConfig{Rows: 300, Seed: 1, Noise: 20})
	salary := rel.Schema.MustIndex("Salary")
	tax := rel.Schema.MustIndex("Tax")
	res, err := Discover(context.Background(), rel,
		WithSignature([]int{salary}, tax), WithMaxBias(60))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]CoveringEntry, 0, 8)
	out := res.Rules.Covering(rel.Tuples[0], buf)
	if cap(out) == 8 && len(out) <= 8 && &out[:1][0] != &buf[:1][0] {
		t.Fatal("dst not recycled despite sufficient capacity")
	}
}
