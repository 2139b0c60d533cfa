package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/crrlab/crr/internal/dataset"
)

// Columnar rule classification: PredictView, ViolationsColumns and
// ExplainView are thin reads of one rule-major walk (classify), which
// narrows a selection vector with one vectorized predicate.Filter sweep per
// (rule, conjunction) instead of dispatching every condition per tuple. The
// tuple-at-a-time references are RuleSet.Predict and, in internal/verify,
// ViolationsRows and ExplainRow; the property tests and crrverify hold every
// consumer bitwise-identical to them.

// classify visits the rules of s in order over the rows of sel, narrowing
// each rule's candidates with conj.Filter one conjunction at a time: a row
// leaves the candidates at the first conjunction it satisfies. Of those
// rows, the ones whose X cells are all non-null reach emit once per (rule,
// conjunction) batch, in ascending row order, with f(t.X + x) + y under that
// conjunction's shifts. rows and preds are reused between batches, so emit
// must neither keep nor change them.
//
// With firstMatch (predict), a rule's candidates are the rows no earlier
// rule emitted, filtered in place: emitted rows leave the selection, while a
// matched row with a null X cell stays for later rules, as in the index
// walk. unmatched returns the rows no rule emitted. Without firstMatch
// (violations, explain), every rule starts from all of sel, and unmatched is
// nil.
func (s *RuleSet) classify(cs *dataset.ColumnSet, sel []int, firstMatch bool,
	emit func(ri, ci int, rows []int, preds []float64)) (unmatched []int) {
	var cand, rows []int
	var preds []float64
	if firstMatch {
		cand = append([]int(nil), sel...)
	}
	for ri := range s.Rules {
		rule := &s.Rules[ri]
		if !firstMatch {
			cand = append(cand[:0], sel...)
		} else if len(cand) == 0 {
			break
		}
		buf := make([]float64, 2*len(rule.XAttrs))
		x, shift := buf[:len(rule.XAttrs)], buf[len(rule.XAttrs):]
		for ci := range rule.Cond.Conjs {
			if len(cand) == 0 {
				break
			}
			conj := &rule.Cond.Conjs[ci]
			s.rowsScanned.Add(int64(len(cand)))
			rows = conj.Filter(cs, cand, rows)
			s.filterSel.Observe(float64(len(rows)) / float64(len(cand)))
			if len(rows) == 0 {
				continue
			}
			// Every matched row leaves this rule's candidates; the rule's
			// last conjunction needs no diff, as the next rule starts over.
			if !firstMatch && ci < len(rule.Cond.Conjs)-1 {
				cand = selDiff(cand, rows)
			}
			for i, attr := range rule.XAttrs {
				shift[i] = conj.Builtin.Shift(attr)
			}
			// Narrow the matched rows in place to those with non-null X.
			matched := rows
			rows, preds = rows[:0], preds[:0]
		row:
			for _, r := range matched {
				for i, attr := range rule.XAttrs {
					if cs.IsNull(attr, r) {
						continue row
					}
					x[i] = xValue(cs, attr, r) + shift[i]
				}
				rows = append(rows, r)
				preds = append(preds, rule.Model.Predict(x)+conj.Builtin.YShift)
			}
			if len(rows) > 0 {
				emit(ri, ci, rows, preds)
			}
			if firstMatch {
				cand = selDiff(cand, rows)
			}
		}
	}
	if firstMatch {
		return cand
	}
	return nil
}

// selDiff removes the sorted subset sub from the sorted selection sel in
// place and returns the shortened selection: one scan locates each row of
// sub, and the runs between them move down with copy.
func selDiff(sel, sub []int) []int {
	n, i := 0, 0
	for _, r := range sub {
		j := i
		for sel[j] != r {
			j++
		}
		n += copy(sel[n:], sel[i:j])
		i = j + 1
	}
	n += copy(sel[n:], sel[i:])
	return sel[:n]
}

// xValue reads the raw numeric cell (attr, row), matching Tuple access:
// categorical cells carry Num = 0, null cells their stored Num.
func xValue(cs *dataset.ColumnSet, attr, row int) float64 {
	if col := cs.Float(attr); col != nil {
		return col[row]
	}
	return 0
}

// slots maps each selected row of v back to its position in v.Sel; rows are
// dense, so a slice beats a map.
func slots(v *dataset.View) []int {
	slot := make([]int, v.Cols.Len())
	for i, r := range v.Sel {
		slot[r] = i
	}
	return slot
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
	n := len(v.Sel)
	preds, covered = make([]float64, n), make([]bool, n)
	if explain {
		ruleIDs = make([]int, n)
	}
	slot := slots(v)
	unmatched := s.classify(v.Cols, v.Sel, true, func(ri, _ int, rows []int, ps []float64) {
		for k, r := range rows {
			i := slot[r]
			preds[i], covered[i] = ps[k], true
			if explain {
				ruleIDs[i] = ri
			}
		}
	})
	for _, r := range unmatched {
		i := slot[r]
		preds[i] = s.Fallback
		if explain {
			ruleIDs[i] = -1
		}
	}
	s.lookups.Add(int64(n))
	s.misses.Add(int64(len(unmatched)))
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
// tuple-at-a-time reference in internal/verify. Each rule checks every row
// with a non-null target; the first satisfied conjunction binds the
// built-in shifts (CRR.Predict semantics). Each violation carries its row's
// repair, from one first-match walk over the distinct violating rows.
func ViolationsColumns(cs *dataset.ColumnSet, s *RuleSet) []Violation {
	ycol := cs.Float(s.YAttr)
	base := make([]int, 0, cs.Len())
	for r := 0; r < cs.Len(); r++ {
		if !cs.IsNull(s.YAttr, r) {
			base = append(base, r)
		}
	}
	var out []Violation
	s.classify(cs, base, false, func(ri, _ int, rows []int, preds []float64) {
		rho := s.Rules[ri].Rho
		for k, r := range rows {
			if dev := math.Abs(ycol[r] - preds[k]); dev > rho+satSlack {
				out = append(out, Violation{
					TupleIndex: r,
					RuleIndex:  ri,
					Observed:   ycol[r],
					Predicted:  preds[k],
					Excess:     dev - rho,
				})
			}
		}
	})
	if len(out) == 0 {
		return nil
	}
	// The rule-major walk found violations grouped by rule; the contract
	// (and the row reference) orders them by tuple then rule.
	slices.SortFunc(out, func(a, b Violation) int {
		return cmp.Or(cmp.Compare(a.TupleIndex, b.TupleIndex), cmp.Compare(a.RuleIndex, b.RuleIndex))
	})
	var rows []int
	for _, v := range out {
		if len(rows) == 0 || rows[len(rows)-1] != v.TupleIndex {
			rows = append(rows, v.TupleIndex)
		}
	}
	// The rule a row violates covers it, so the walk emits every row.
	s.classify(cs, rows, true, func(_, _ int, rs []int, preds []float64) {
		for k, r := range rs {
			i := sort.Search(len(out), func(i int) bool { return out[i].TupleIndex >= r })
			for ; i < len(out) && out[i].TupleIndex == r; i++ {
				out[i].Repair = preds[k]
			}
		}
	})
	return out
}

// ExplainView evaluates every rule of s against every selected row of v,
// returning one Explanation per selected row (parallel to v.Sel). Per rule,
// the first satisfied conjunction binds; rows with a null X cell under a
// matching condition contribute no MatchInfo for that rule.
func ExplainView(v *dataset.View, s *RuleSet) []Explanation {
	cs := v.Cols
	out := make([]Explanation, len(v.Sel))
	for i := range out {
		out[i] = Explanation{Prediction: s.Fallback}
	}
	slot := slots(v)
	s.classify(cs, v.Sel, false, func(ri, ci int, rows []int, preds []float64) {
		rule := &s.Rules[ri]
		for k, r := range rows {
			m := MatchInfo{
				RuleIndex:  ri,
				ConjIndex:  ci,
				Builtin:    rule.Cond.Conjs[ci].Builtin,
				Prediction: preds[k],
				Deviation:  math.NaN(),
				Satisfied:  true,
			}
			if !cs.IsNull(s.YAttr, r) {
				m.Deviation = math.Abs(xValue(cs, s.YAttr, r) - preds[k])
				m.Satisfied = m.Deviation <= rule.Rho+satSlack
			}
			e := &out[slot[r]]
			if !e.Covered {
				e.Covered = true
				e.Prediction = preds[k]
			}
			e.Matches = append(e.Matches, m)
		}
	})
	return out
}
