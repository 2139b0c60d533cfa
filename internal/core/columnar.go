package core

import (
	"math"
	"sort"
	"time"

	"github.com/crrlab/crr/internal/dataset"
)

// Columnar rule classification: the batch counterparts of RuleSet.Predict,
// Violations and Explain. Instead of dispatching every rule condition per
// tuple, these keep a selection vector of still-unclassified rows and narrow
// it with one vectorized predicate.Filter sweep per (rule, conjunction), in
// rule order — reproducing the first-match semantics of the row path exactly.
// The row-path implementations remain the reference; the property tests and
// crrbench -compare assert bitwise-identical outputs.

// selDiff removes the sorted subset sub from the sorted selection sel in one
// merge walk, in place, and returns the shortened selection.
func selDiff(sel, sub []int) []int {
	if len(sub) == 0 {
		return sel
	}
	out := sel[:0]
	j := 0
	for _, r := range sel {
		if j < len(sub) && sub[j] == r {
			j++
			continue
		}
		out = append(out, r)
	}
	return out
}

// xValue reads the raw numeric cell (attr, row), matching Tuple access:
// categorical cells carry Num = 0, null cells their stored Num.
func xValue(cs *dataset.ColumnSet, attr, row int) float64 {
	if col := cs.Float(attr); col != nil {
		return col[row]
	}
	return 0
}

// PredictView classifies every selected row of v in one columnar pass,
// returning the prediction and coverage flag per selected row (parallel to
// v.Sel). Semantics equal calling Predict on each row's tuple: the first
// (rule, conjunction) in rule order whose condition holds and whose X cells
// are non-null supplies the prediction; uncovered rows get the fallback.
func (s *RuleSet) PredictView(v *dataset.View) (preds []float64, covered []bool) {
	preds, covered, _ = s.predictView(v, false)
	return preds, covered
}

// PredictViewExplained is PredictView plus the explain metadata the serving
// plane exposes behind ?explain: ruleIDs[i] is the index of the rule that
// supplied row i's prediction (the same first-match rule Predict uses), or
// -1 for rows answered by the fallback. Predictions and coverage are
// bitwise-identical to PredictView.
func (s *RuleSet) PredictViewExplained(v *dataset.View) (preds []float64, covered []bool, ruleIDs []int) {
	return s.predictView(v, true)
}

func (s *RuleSet) predictView(v *dataset.View, explain bool) (preds []float64, covered []bool, ruleIDs []int) {
	cs := v.Cols
	n := len(v.Sel)
	preds = make([]float64, n)
	covered = make([]bool, n)
	if explain {
		ruleIDs = make([]int, n)
		for i := range ruleIDs {
			ruleIDs[i] = -1
		}
	}
	s.lookups.Add(int64(n))
	// slot maps a row index back to its position in v.Sel; rows are dense,
	// so a slice beats a map.
	slot := make([]int, cs.Len())
	for i, r := range v.Sel {
		slot[r] = i
	}
	remaining := append([]int(nil), v.Sel...)
	var matched, consumed []int
	for ri := range s.Rules {
		if len(remaining) == 0 {
			break
		}
		rule := &s.Rules[ri]
		x := make([]float64, len(rule.XAttrs))
		for ci := range rule.Cond.Conjs {
			if len(remaining) == 0 {
				break
			}
			conj := rule.Cond.Conjs[ci]
			s.rowsScanned.Add(int64(len(remaining)))
			matched = conj.Filter(cs, remaining, matched)
			s.filterSel.Observe(float64(len(matched)) / float64(len(remaining)))
			if len(matched) == 0 {
				continue
			}
			// A matched row with a null X cell stays unclassified: the row
			// path's index lookup skips such entries and keeps scanning.
			consumed = consumed[:0]
			for _, r := range matched {
				nullX := false
				for _, attr := range rule.XAttrs {
					if cs.IsNull(attr, r) {
						nullX = true
						break
					}
				}
				if nullX {
					continue
				}
				for i, attr := range rule.XAttrs {
					x[i] = xValue(cs, attr, r) + conj.Builtin.Shift(attr)
				}
				i := slot[r]
				preds[i] = rule.Model.Predict(x) + conj.Builtin.YShift
				covered[i] = true
				if explain {
					ruleIDs[i] = ri
				}
				consumed = append(consumed, r)
			}
			remaining = selDiff(remaining, consumed)
		}
	}
	for _, r := range remaining {
		preds[slot[r]] = s.Fallback
	}
	s.misses.Add(int64(len(remaining)))
	return preds, covered, ruleIDs
}

// neededAttrs returns the distinct attributes the rule set reads while
// classifying: every rule's X attributes and every condition predicate's
// attribute, plus any extras (the Y attribute, for violation checks). It
// bounds what PredictBatch and Violations must columnarize — on wide
// relations most columns are never read.
func (s *RuleSet) neededAttrs(extra ...int) []int {
	seen := make(map[int]bool)
	var out []int
	add := func(a int) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range extra {
		add(a)
	}
	for ri := range s.Rules {
		for _, a := range s.Rules[ri].XAttrs {
			add(a)
		}
		for _, conj := range s.Rules[ri].Cond.Conjs {
			for _, p := range conj.Preds {
				add(p.Attr)
			}
		}
	}
	return out
}

// PredictBatch classifies every tuple of rel columnar-first: it builds a
// ColumnSet over just the attributes the rules read (reported under
// columns.build_ns) and delegates to PredictView over the full selection.
// Results are bitwise-identical to calling Predict per tuple.
func (s *RuleSet) PredictBatch(rel *dataset.Relation) (preds []float64, covered []bool) {
	start := time.Now()
	cs := dataset.NewColumnSetAttrs(rel, s.neededAttrs())
	s.colsBuild.Add(time.Since(start).Nanoseconds())
	return s.PredictView(cs.View())
}

// ViolationsColumns detects every (tuple, rule) violation against a
// prebuilt ColumnSet, ordered by tuple then rule — bitwise-identical to the
// tuple-at-a-time reference in internal/verify. Per rule, the first satisfied conjunction binds the
// built-in shifts (CRR.Predict semantics), so matched rows leave the rule's
// candidate selection whether or not their X cells are null.
func ViolationsColumns(cs *dataset.ColumnSet, s *RuleSet) []Violation {
	ycol := cs.Float(s.YAttr)
	base := make([]int, 0, cs.Len())
	for r := 0; r < cs.Len(); r++ {
		if !cs.IsNull(s.YAttr, r) {
			base = append(base, r)
		}
	}
	var out []Violation
	var remaining, matched []int
	for ri := range s.Rules {
		rule := &s.Rules[ri]
		x := make([]float64, len(rule.XAttrs))
		remaining = append(remaining[:0], base...)
		for ci := range rule.Cond.Conjs {
			if len(remaining) == 0 {
				break
			}
			conj := rule.Cond.Conjs[ci]
			matched = conj.Filter(cs, remaining, matched)
			if len(matched) == 0 {
				continue
			}
			for _, r := range matched {
				nullX := false
				for _, attr := range rule.XAttrs {
					if cs.IsNull(attr, r) {
						nullX = true
						break
					}
				}
				if nullX {
					continue
				}
				for i, attr := range rule.XAttrs {
					x[i] = xValue(cs, attr, r) + conj.Builtin.Shift(attr)
				}
				pred := rule.Model.Predict(x) + conj.Builtin.YShift
				if dev := math.Abs(ycol[r] - pred); dev > rule.Rho+satSlack {
					out = append(out, Violation{
						TupleIndex: r,
						RuleIndex:  ri,
						Observed:   ycol[r],
						Predicted:  pred,
						Excess:     dev - rule.Rho,
					})
				}
			}
			remaining = selDiff(remaining, matched)
		}
	}
	// The rule-major sweep found violations grouped by rule; the contract
	// (and the row path) orders them by tuple then rule.
	sort.Slice(out, func(i, j int) bool {
		if out[i].TupleIndex != out[j].TupleIndex {
			return out[i].TupleIndex < out[j].TupleIndex
		}
		return out[i].RuleIndex < out[j].RuleIndex
	})
	return out
}

// ExplainView evaluates every rule of s against every selected row of v,
// returning one Explanation per selected row (parallel to v.Sel). Output
// equals calling Explain per tuple: per rule, the first satisfied
// conjunction binds; rows with a null X cell under a matching condition
// contribute no MatchInfo for that rule.
func ExplainView(v *dataset.View, s *RuleSet) []Explanation {
	cs := v.Cols
	out := make([]Explanation, len(v.Sel))
	for i := range out {
		out[i] = Explanation{Prediction: s.Fallback}
	}
	slot := make([]int, cs.Len())
	for i, r := range v.Sel {
		slot[r] = i
	}
	var remaining, matched []int
	for ri := range s.Rules {
		rule := &s.Rules[ri]
		x := make([]float64, len(rule.XAttrs))
		remaining = append(remaining[:0], v.Sel...)
		for ci := range rule.Cond.Conjs {
			if len(remaining) == 0 {
				break
			}
			conj := rule.Cond.Conjs[ci]
			matched = conj.Filter(cs, remaining, matched)
			if len(matched) == 0 {
				continue
			}
			for _, r := range matched {
				nullX := false
				for _, attr := range rule.XAttrs {
					if cs.IsNull(attr, r) {
						nullX = true
						break
					}
				}
				if nullX {
					continue
				}
				for i, attr := range rule.XAttrs {
					x[i] = xValue(cs, attr, r) + conj.Builtin.Shift(attr)
				}
				pred := rule.Model.Predict(x) + conj.Builtin.YShift
				m := MatchInfo{
					RuleIndex:  ri,
					ConjIndex:  ci,
					Builtin:    conj.Builtin,
					Prediction: pred,
					Deviation:  math.NaN(),
					Satisfied:  true,
				}
				if !cs.IsNull(s.YAttr, r) {
					m.Deviation = math.Abs(xValue(cs, s.YAttr, r) - pred)
					m.Satisfied = m.Deviation <= rule.Rho+satSlack
				}
				e := &out[slot[r]]
				if !e.Covered {
					e.Covered = true
					e.Prediction = pred
				}
				e.Matches = append(e.Matches, m)
			}
			remaining = selDiff(remaining, matched)
		}
	}
	return out
}
