package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/crrlab/crr/internal/regress"
)

// TestCodecRoundTripCompactedRuleSet round-trips a rule set whose builtins
// were produced by the compaction engine itself (Translation δ composition,
// Fusion of translated disjuncts) — not hand-assembled — and requires the
// decoded set to classify bitwise identically. This is the shape the serving
// layer loads after `crrdiscover -compact -save`.
func TestCodecRoundTripCompactedRuleSet(t *testing.T) {
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Fallback: 3}
	// Two translation families; compaction rewrites all but one rule per
	// family through built-in y = δ predicates and fuses the conditions.
	for i := 0; i < 4; i++ {
		lo := float64(i * 10)
		rs.Rules = append(rs.Rules, ruleOn(
			regress.NewLinear(float64(i)*7, 2), 0.4+0.05*float64(i), condRange(lo, lo+10)))
	}
	for i := 0; i < 3; i++ {
		lo := 100 + float64(i*10)
		rs.Rules = append(rs.Rules, ruleOn(
			regress.NewLinear(float64(i)*-3, 0.5), 0.2, condRange(lo, lo+10)))
	}
	compacted, stats := compactExact(t, rs)
	if stats.Translations == 0 || stats.Fusions == 0 {
		t.Fatalf("setup produced no inferences: %+v", stats)
	}
	hasShift := false
	for ri := range compacted.Rules {
		for _, conj := range compacted.Rules[ri].Cond.Conjs {
			if conj.Builtin.YShift != 0 {
				hasShift = true
			}
		}
	}
	if !hasShift {
		t.Fatal("setup produced no built-in δ predicates")
	}

	var buf bytes.Buffer
	if err := WriteRuleSet(&buf, compacted); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := ReadRuleSet(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	if decoded.NumRules() != compacted.NumRules() {
		t.Fatalf("rule count %d vs %d", decoded.NumRules(), compacted.NumRules())
	}
	for ri := range compacted.Rules {
		a, b := &compacted.Rules[ri], &decoded.Rules[ri]
		if a.Cond.String() != b.Cond.String() {
			t.Fatalf("rule %d condition %q vs %q", ri, a.Cond.String(), b.Cond.String())
		}
		if math.Float64bits(a.Rho) != math.Float64bits(b.Rho) {
			t.Fatalf("rule %d ρ %v vs %v", ri, a.Rho, b.Rho)
		}
		if !a.Model.Equal(b.Model, 0) {
			t.Fatalf("rule %d model changed across the round trip", ri)
		}
		for ci := range a.Cond.Conjs {
			if !a.Cond.Conjs[ci].Builtin.Equal(b.Cond.Conjs[ci].Builtin) {
				t.Fatalf("rule %d conjunction %d builtin %v vs %v",
					ri, ci, a.Cond.Conjs[ci].Builtin, b.Cond.Conjs[ci].Builtin)
			}
		}
	}
	// Bitwise classification parity across the translated ranges, the gaps
	// and the fallback region.
	for x := -5.0; x <= 140; x += 0.5 {
		tp := lineTuple(x, 0, "a")
		p1, ok1 := compacted.Predict(tp)
		p2, ok2 := decoded.Predict(tp)
		if ok1 != ok2 || math.Float64bits(p1) != math.Float64bits(p2) {
			t.Fatalf("x=%v: original (%v,%v) vs decoded (%v,%v)", x, p1, ok1, p2, ok2)
		}
	}
}
