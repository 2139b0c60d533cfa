package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

func deltaRule(deltas ...float64) *RuleSet {
	// One rule with len(deltas) touching windows of width 10, each carrying
	// its y = δᵢ.
	var conjs []predicate.Conjunction
	for i, d := range deltas {
		lo := float64(i * 10)
		c := predicate.NewConjunction(
			predicate.NumPred(0, predicate.Ge, lo),
			predicate.NumPred(0, predicate.Lt, lo+10),
		)
		if d != 0 {
			c.Builtin = c.Builtin.WithYShift(d)
		}
		conjs = append(conjs, c)
	}
	return &RuleSet{
		Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1,
		Rules: []CRR{{
			Model: regress.NewLinear(0, 2), Rho: 0.5,
			Cond:   predicate.NewDNF(conjs...),
			XAttrs: []int{0}, YAttr: 1,
		}},
	}
}

func TestMergeWindowsCollapsesNearDeltas(t *testing.T) {
	rs := deltaRule(0, 0.01, 0.02, 0.015)
	out := MergeWindows(rs, 0.05)
	if got := len(out.Rules[0].Cond.Conjs); got != 1 {
		t.Fatalf("windows = %d, want 1: %v", got, out.Rules[0].Cond)
	}
	// ρ widened by half the δ spread (0.02/2 = 0.01).
	if absDiff(out.Rules[0].Rho, 0.5+0.01) > 1e-12 {
		t.Errorf("ρ = %v, want 0.51", out.Rules[0].Rho)
	}
	// The merged δ is the spread midpoint.
	if got := out.Rules[0].Cond.Conjs[0].Builtin.YShift; absDiff(got, 0.01) > 1e-12 {
		t.Errorf("merged δ = %v, want 0.01", got)
	}
	// Input untouched.
	if len(rs.Rules[0].Cond.Conjs) != 4 || rs.Rules[0].Rho != 0.5 {
		t.Error("MergeWindows mutated its input")
	}
}

func TestMergeWindowsRespectsTolerance(t *testing.T) {
	rs := deltaRule(0, 10) // far-apart shifts
	out := MergeWindows(rs, 0.05)
	if got := len(out.Rules[0].Cond.Conjs); got != 2 {
		t.Fatalf("windows = %d, want 2 (δ spread 10 > tol)", got)
	}
	if out.Rules[0].Rho != 0.5 {
		t.Errorf("ρ changed without a merge: %v", out.Rules[0].Rho)
	}
}

func TestMergeWindowsSoundness(t *testing.T) {
	// Every tuple satisfied by the original rule set (within its ρ) must be
	// satisfied by the merged one with its widened ρ.
	rs := deltaRule(0, 0.3, 0.1)
	out := MergeWindows(rs, 0.5)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		x := rng.Float64() * 30
		// y within the ORIGINAL guarantee of the window x falls in.
		delta := []float64{0, 0.3, 0.1}[int(x/10)]
		y := 2*x + delta + (2*rng.Float64()-1)*0.5
		tpl := lineTuple(x, y, "a")
		if !rs.Rules[0].Sat(tpl) {
			continue
		}
		if !out.Rules[0].Sat(tpl) {
			t.Fatalf("merged rule violated at x=%v, y=%v", x, y)
		}
	}

	// Windows of different builtins overlap: joining [0,10) and [10,20)
	// would put (12, 27, a) under y = 0.005 ahead of its y = 3 window.
	win := func(lo, hi, delta float64, ctx ...predicate.Predicate) predicate.Conjunction {
		c := predicate.NewConjunction(predicate.NumPred(0, predicate.Ge, lo), predicate.NumPred(0, predicate.Lt, hi))
		c.Preds = append(c.Preds, ctx...)
		if delta != 0 {
			c.Builtin = c.Builtin.WithYShift(delta)
		}
		return c
	}
	rs = deltaRule()
	rs.Rules[0].Cond = predicate.NewDNF(win(0, 10, 0), win(5, 15, 3, predicate.StrPred(2, "a")), win(10, 20, 0.01))
	tpl := lineTuple(12, 27, "a")
	if !rs.Rules[0].Sat(tpl) {
		t.Fatal("the overlapping rule does not hold on (12, 27, a)")
	}
	if out := MergeWindows(rs, 0.05); !out.Rules[0].Sat(tpl) {
		t.Fatalf("merged rule %v (ρ %v) violated at (12, 27, a)", out.Rules[0].Cond, out.Rules[0].Rho)
	}
}

// Property: MergeWindows preserves coverage exactly and never grows
// condition size; on covered tuples the prediction moves by at most the
// merge tolerance.
func TestMergeWindowsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		deltas := make([]float64, n)
		for i := range deltas {
			deltas[i] = rng.Float64() * 0.2
		}
		rs := deltaRule(deltas...)
		tol := rng.Float64() * 0.3
		out := MergeWindows(rs, tol)
		if len(out.Rules[0].Cond.Conjs) > len(rs.Rules[0].Cond.Conjs) {
			return false
		}
		for trial := 0; trial < 100; trial++ {
			x := rng.Float64()*float64(n)*10 + rng.Float64()*5 - 2.5
			tpl := lineTuple(x, 0, "a")
			p1, ok1 := rs.Predict(tpl)
			p2, ok2 := out.Predict(tpl)
			if ok1 != ok2 {
				return false
			}
			if ok1 && math.Abs(p1-p2) > tol/2+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMergeWindowsEndToEnd(t *testing.T) {
	// Quickstart scenario: after compaction + window merging with tol ρ_M/10
	// the two-slope dataset collapses to the ideal two-window-per-rule form.
	rel := piecewiseRelation(900, 0.1, 23)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	compacted, _ := compactExact(t, res.Rules)
	merged := MergeWindows(compacted, 0.05)
	totalWindows := 0
	for i := range merged.Rules {
		totalWindows += len(merged.Rules[i].Cond.Conjs)
	}
	before := 0
	for i := range compacted.Rules {
		before += len(compacted.Rules[i].Cond.Conjs)
	}
	if totalWindows >= before {
		t.Errorf("window merging had no effect: %d → %d", before, totalWindows)
	}
	if !merged.Holds(rel) {
		t.Error("merged rules violated on training data")
	}
	if cov := merged.Coverage(rel); cov != 1 {
		t.Errorf("coverage = %v", cov)
	}
}
