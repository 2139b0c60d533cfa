package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/regress"
)

// mixedCompactSet builds a set that exercises all three inferences: two
// translation families with distinct slopes plus one unrelated rule, with
// varying ρ so Generalization decisions matter.
func mixedCompactSet() *RuleSet {
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1}
	for i := 0; i < 4; i++ {
		lo := float64(i * 10)
		rs.Rules = append(rs.Rules, ruleOn(
			regress.NewLinear(float64(i)*3, 2), 0.2+0.1*float64(i), condRange(lo, lo+10)))
	}
	for i := 0; i < 3; i++ {
		lo := 100 + float64(i*10)
		rs.Rules = append(rs.Rules, ruleOn(
			regress.NewLinear(float64(i)*5, -1), 0.5, condRange(lo, lo+10)))
	}
	rs.Rules = append(rs.Rules, ruleOn(regress.NewLinear(7, 9), 0.3, condRange(200, 220)))
	return rs
}

// sameRuleSet compares two rule sets bitwise: condition rendering, ρ bits
// and models with tolerance 0.
func sameRuleSet(t *testing.T, a, b *RuleSet) {
	t.Helper()
	if a.NumRules() != b.NumRules() {
		t.Fatalf("rule count %d vs %d", a.NumRules(), b.NumRules())
	}
	for i := range a.Rules {
		ra, rb := &a.Rules[i], &b.Rules[i]
		if ra.Cond.String() != rb.Cond.String() {
			t.Fatalf("rule %d condition %q vs %q", i, ra.Cond.String(), rb.Cond.String())
		}
		if math.Float64bits(ra.Rho) != math.Float64bits(rb.Rho) {
			t.Fatalf("rule %d ρ %v vs %v", i, ra.Rho, rb.Rho)
		}
		if !ra.Model.Equal(rb.Model, 0) {
			t.Fatalf("rule %d models differ", i)
		}
	}
}

// TestCompactOrderIndependent: Algorithm 2 must be a function of the rule
// SET — permuting the input list may not change the output rules or the
// inference statistics (the engine canonicalizes its pivot order).
func TestCompactOrderIndependent(t *testing.T) {
	base := mixedCompactSet()
	want, wantStats := compactExact(t, base)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		perm := &RuleSet{Schema: base.Schema, XAttrs: base.XAttrs, YAttr: base.YAttr}
		perm.Rules = append([]CRR(nil), base.Rules...)
		rng.Shuffle(len(perm.Rules), func(i, j int) {
			perm.Rules[i], perm.Rules[j] = perm.Rules[j], perm.Rules[i]
		})
		got, stats := compactExact(t, perm)
		sameRuleSet(t, want, got)
		if stats != wantStats {
			t.Fatalf("trial %d: stats %+v vs %+v", trial, stats, wantStats)
		}
	}
}

// TestCompactTraceMatchesStats: the Trace hook must emit exactly one event
// per counted inference, carrying pre-application deep copies.
func TestCompactTraceMatchesStats(t *testing.T) {
	rs := translationFamily(5, 2)
	var events []TraceEvent
	out, stats, err := CompactCtx(context.Background(), rs, CompactOptions{
		Trace: func(e TraceEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRules() != 1 {
		t.Fatalf("compacted to %d rules, want 1", out.NumRules())
	}
	kinds := map[TraceKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[TraceTranslation] != stats.Translations || kinds[TraceFusion] != stats.Fusions ||
		kinds[TraceImplied] != stats.Implied {
		t.Fatalf("trace kinds %v, stats %+v", kinds, stats)
	}
	if len(events) != stats.Translations+stats.Fusions+stats.Implied {
		t.Fatalf("%d events for %d counted inferences", len(events),
			stats.Translations+stats.Fusions+stats.Implied)
	}
	for i, e := range events {
		if e.Kind != TraceTranslation {
			continue
		}
		pivot, pre, post := &e.Pre[0], &e.Pre[1], e.Post
		if post == nil || !post.Model.Equal(pivot.Model, 0) {
			t.Fatalf("event %d: rewritten rule does not carry the pivot model", i)
		}
		// Pre[1] is the state BEFORE the rewrite: in this family every
		// non-pivot intercept differs from the pivot's.
		if pre.Model.Equal(pivot.Model, 0) {
			t.Fatalf("event %d: pre-state already carries the pivot model", i)
		}
	}
	// Input untouched despite tracing.
	for i := range rs.Rules {
		if len(rs.Rules[i].Cond.Conjs) != 1 {
			t.Fatal("tracing mutated the input set")
		}
	}
}

// TestCompactCtxCancelZeroStats: the cancellation contract — a canceled
// compaction returns a nil set AND zero statistics, at every queue-pop
// point. (A partial CompactStats would double-count inferences when callers
// retry.)
func TestCompactCtxCancelZeroStats(t *testing.T) {
	rs := mixedCompactSet()
	// Count the context polls of a full run.
	probe := &countingCtx{limit: 1 << 30}
	if _, _, err := CompactCtx(probe, rs, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	total := int(probe.calls.Load())
	if total == 0 {
		t.Fatal("CompactCtx never polled the context")
	}
	for limit := 0; limit < total; limit++ {
		ctx := &countingCtx{limit: int64(limit)}
		out, stats, err := CompactCtx(ctx, rs, CompactOptions{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("limit %d: err = %v, want ErrCanceled", limit, err)
		}
		if out != nil {
			t.Fatalf("limit %d: canceled compaction returned a rule set", limit)
		}
		if stats != (CompactStats{}) {
			t.Fatalf("limit %d: canceled compaction returned partial stats %+v", limit, stats)
		}
	}
}

// TestCompactSkipsNaNModels: a model with a non-finite parameter must never
// win a Translation — a NaN δ would silently poison the rewritten rule's
// builtin. (math.Abs(NaN) > tol is false, so a naive parameter comparison
// treats NaN as "equal".)
func TestCompactSkipsNaNModels(t *testing.T) {
	cases := []struct {
		name string
		bad  *regress.Linear
	}{
		{"nan-intercept", regress.NewLinear(math.NaN(), 2)},
		{"inf-intercept", regress.NewLinear(math.Inf(1), 2)},
		{"nan-slope", regress.NewLinear(0, math.NaN())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1}
			rs.Rules = append(rs.Rules,
				ruleOn(tc.bad, 0.5, condRange(0, 10)),
				ruleOn(regress.NewLinear(0, 2), 0.5, condRange(10, 20)),
			)
			out, stats := compactExact(t, rs)
			if stats.Translations != 0 {
				t.Fatalf("translated onto a non-finite model: %+v", stats)
			}
			if out.NumRules() != 2 {
				t.Fatalf("rules = %d, want 2 (nothing to merge)", out.NumRules())
			}
		})
	}
}
