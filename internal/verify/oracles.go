package verify

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
)

// Cross-engine oracles: the discovery matrix over the sequential and
// parallel engines, the kernel oracle, and the row-vs-columnar parity checks
// of every classification surface.

// discoveryMatrix mines the target with the sequential and the parallel
// engine and checks both semantically — every trainable row covered, every
// rule satisfied by the data; the parallel engine is deterministic only as
// a coverage (model sharing depends on pop order). The kernel oracle checks
// the scan kernels both engines share against tuple-at-a-time references,
// once over the binary space, where a cut bucket holds many rows, and once
// over the paper-default space (a cut at every distinct value), where
// buckets hold tied rows only. The sequential result — the canonical
// engine — is returned for the downstream oracles.
func (rn *runner) discoveryMatrix(ctx context.Context, t Target) (*core.RuleSet, error) {
	type mode struct {
		name    string
		workers int
	}
	modes := []mode{{"seq", 1}, {"par", rn.opts.Workers}}
	results := make(map[string]*core.RuleSet, len(modes))
	for _, m := range modes {
		cfg := baseConfig(t, t.Rel, rn.opts.PredSize)
		cfg.Workers = m.workers
		res, err := core.Discover(ctx, t.Rel, core.WithConfig(cfg))
		if err != nil {
			return nil, fmt.Errorf("discover %s: %w", m.name, err)
		}
		results[m.name] = res.Rules
	}

	binary := baseConfig(t, t.Rel, rn.opts.PredSize)
	dense := binary
	dense.Preds = predicate.Generate(t.Rel, t.CondAttrs, predicate.GeneratorConfig{})
	for _, pass := range []struct {
		oracle string
		cfg    core.DiscoverConfig
	}{{"discover/kernels-vs-tuples", binary}, {"discover/kernels-vs-tuples/dense", dense}} {
		detail, err := KernelsVsTuples(ctx, t.Rel, pass.cfg)
		if err != nil {
			return nil, fmt.Errorf("kernel oracle: %w", err)
		}
		rn.check(pass.oracle, detail)
	}

	trainable := trainableRows(t.Rel, t.XAttrs, t.YAttr)
	for _, m := range modes {
		rules := results[m.name]
		_, covered := rules.PredictBatch(t.Rel)
		detail := ""
		for _, ri := range trainable {
			if !covered[ri] {
				detail = fmt.Sprintf("trainable row %d not covered by any rule", ri)
				break
			}
		}
		rn.check("discover/coverage/"+m.name, detail)

		detail = ""
		if vs := core.Violations(t.Rel, rules); len(vs) > 0 {
			v := vs[0]
			detail = fmt.Sprintf("rule %d violated by row %d: |%g - %g| > ρ+slack",
				v.RuleIndex, v.TupleIndex, v.Observed, v.Predicted)
		}
		rn.check("discover/holds/"+m.name, detail)
	}
	return results["seq"], nil
}

// diffRuleSets structurally and bitwise compares two rule sets, returning ""
// on identity and a description of the first disagreement otherwise.
// Conditions compare through their exact rendering (FormatFloat 'g' -1
// round-trips float64), ρ through Float64bits, models through Equal with
// tolerance 0.
func diffRuleSets(a, b *core.RuleSet) string {
	if a.NumRules() != b.NumRules() {
		return fmt.Sprintf("rule count %d vs %d", a.NumRules(), b.NumRules())
	}
	if a.YAttr != b.YAttr {
		return fmt.Sprintf("YAttr %d vs %d", a.YAttr, b.YAttr)
	}
	if !bitsEqual(a.Fallback, b.Fallback) {
		return fmt.Sprintf("fallback %g vs %g", a.Fallback, b.Fallback)
	}
	for i := range a.Rules {
		ra, rb := &a.Rules[i], &b.Rules[i]
		if ca, cb := ra.Cond.String(), rb.Cond.String(); ca != cb {
			return fmt.Sprintf("rule %d condition %q vs %q", i, ca, cb)
		}
		if !bitsEqual(ra.Rho, rb.Rho) {
			return fmt.Sprintf("rule %d ρ %v vs %v", i, ra.Rho, rb.Rho)
		}
		if ra.Model == nil || rb.Model == nil || !ra.Model.Equal(rb.Model, 0) {
			return fmt.Sprintf("rule %d models differ: %v vs %v", i, ra.Model, rb.Model)
		}
	}
	return ""
}

// scanPredict is the linear-scan reference for RuleSet.Predict: first rule
// in rule order whose condition matches with non-null X cells supplies the
// prediction. The interval-indexed Predict must be bitwise identical to it.
func scanPredict(s *core.RuleSet, tp dataset.Tuple) (float64, bool) {
	for ri := range s.Rules {
		if p, ok := s.Rules[ri].Predict(tp); ok {
			return p, true
		}
	}
	return s.Fallback, false
}

// classificationOracles runs the row-vs-columnar (and index-vs-scan) parity
// checks of every classification surface on the target's relation. label
// distinguishes the discovered from the compacted rule set in oracle names.
func (rn *runner) classificationOracles(t Target, rules *core.RuleSet, label string) {
	rel := t.Rel

	// Predict: interval index vs linear rule scan, per tuple, bitwise.
	detail := ""
	for i, tp := range rel.Tuples {
		ip, icov := rules.Predict(tp)
		sp, scov := scanPredict(rules, tp)
		if icov != scov || !bitsEqual(ip, sp) {
			detail = fmt.Sprintf("row %d: index (%g,%v) vs scan (%g,%v)", i, ip, icov, sp, scov)
			break
		}
	}
	rn.check("predict/index-vs-scan/"+label, detail)

	// PredictBatch (columnar) vs per-tuple Predict (row path), bitwise.
	preds, covered := rules.PredictBatch(rel)
	detail = ""
	for i, tp := range rel.Tuples {
		rp, rcov := rules.Predict(tp)
		if covered[i] != rcov || !bitsEqual(preds[i], rp) {
			detail = fmt.Sprintf("row %d: batch (%g,%v) vs row (%g,%v)", i, preds[i], covered[i], rp, rcov)
			break
		}
	}
	rn.check("predict/batch-vs-row/"+label, detail)

	// Violations: columnar vs tuple-at-a-time reference, exact.
	rn.check("violations/columns-vs-rows/"+label,
		diffViolations(core.Violations(rel, rules), ViolationsRows(rel, rules)))

	// Explain: columnar view vs per-tuple reference.
	rn.check("explain/view-vs-row/"+label, diffExplain(rel, rules))
}

func diffViolations(a, b []core.Violation) string {
	if len(a) != len(b) {
		return fmt.Sprintf("violation count %d vs %d", len(a), len(b))
	}
	for i := range a {
		va, vb := a[i], b[i]
		if va.TupleIndex != vb.TupleIndex || va.RuleIndex != vb.RuleIndex ||
			!bitsEqual(va.Observed, vb.Observed) || !bitsEqual(va.Predicted, vb.Predicted) ||
			!bitsEqual(va.Excess, vb.Excess) || !bitsEqual(va.Repair, vb.Repair) {
			return fmt.Sprintf("violation %d: %+v vs %+v", i, va, vb)
		}
	}
	return ""
}

func diffExplain(rel *dataset.Relation, rules *core.RuleSet) string {
	view := core.ExplainView(dataset.NewColumnSet(rel).View(), rules)
	for i, tp := range rel.Tuples {
		row := ExplainRow(rules, tp)
		col := view[i]
		if col.Covered != row.Covered || !bitsEqual(col.Prediction, row.Prediction) {
			return fmt.Sprintf("row %d: view (%g,%v) vs row (%g,%v)",
				i, col.Prediction, col.Covered, row.Prediction, row.Covered)
		}
		if len(col.Matches) != len(row.Matches) {
			return fmt.Sprintf("row %d: %d vs %d matches", i, len(col.Matches), len(row.Matches))
		}
		for j := range col.Matches {
			mc, mr := col.Matches[j], row.Matches[j]
			if mc.RuleIndex != mr.RuleIndex || mc.ConjIndex != mr.ConjIndex ||
				mc.Satisfied != mr.Satisfied ||
				!bitsEqual(mc.Prediction, mr.Prediction) || !bitsEqual(mc.Deviation, mr.Deviation) ||
				!mc.Builtin.Equal(mr.Builtin) {
				return fmt.Sprintf("row %d match %d: %+v vs %+v", i, j, mc, mr)
			}
		}
	}
	return ""
}

// codecOracle round-trips the rule set through the v2 codec and checks the
// decoded set is structurally identical and classifies every tuple bitwise
// the same — this is what catches a field dropped for translated or fused
// rules (built-in Δ/δ predicates, per-conjunction builtins).
func (rn *runner) codecOracle(t Target, rules *core.RuleSet, label string) {
	var buf bytes.Buffer
	if err := core.WriteRuleSet(&buf, rules); err != nil {
		rn.fail("codec/roundtrip/"+label, fmt.Sprintf("encode: %v", err))
		return
	}
	decoded, err := core.ReadRuleSet(&buf)
	if err != nil {
		rn.fail("codec/roundtrip/"+label, fmt.Sprintf("decode: %v", err))
		return
	}
	rn.check("codec/roundtrip/"+label, diffRuleSets(rules, decoded))

	detail := ""
	for i, tp := range t.Rel.Tuples {
		op, ocov := rules.Predict(tp)
		dp, dcov := decoded.Predict(tp)
		if ocov != dcov || !bitsEqual(op, dp) {
			detail = fmt.Sprintf("row %d: original (%g,%v) vs decoded (%g,%v)", i, op, ocov, dp, dcov)
			break
		}
	}
	rn.check("codec/predict/"+label, detail)
}

// xScale returns 1 + Σ over the X attributes of the largest |x| in rel —
// the scale factor of the tolerance-induced drift bounds. Anchored
// translation evaluates δ at a conjunction-interval midpoint that can sit
// anywhere in the attribute's domain, so the drift bound must use the
// domain scale, not a per-tuple |x|.
func xScale(rel *dataset.Relation, xattrs []int) float64 {
	s := 1.0
	for _, a := range xattrs {
		m := 0.0
		for _, tp := range rel.Tuples {
			if !tp[a].Null {
				if v := math.Abs(tp[a].Num); v > m {
					m = v
				}
			}
		}
		s += m
	}
	return s
}

// driftBound bounds the tolerated prediction drift when models were unified
// under parameter tolerance tol over data of the given x scale: per
// dimension the slopes may differ by tol and the substitution is anchored
// somewhere inside the domain, so predictions drift by at most
// 2·tol·scale plus the engine's own float slack.
func driftBound(tol, scale float64) float64 {
	return 1e-9 + 2*tol*scale
}
