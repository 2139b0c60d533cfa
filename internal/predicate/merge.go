package predicate

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// MergeWindows collapses chains of touching or overlapping windows into one
// disjunct each. A window is a disjunct that bounds a single numeric
// attribute; windows join when they bound the same attribute under the same
// other predicates and x = Δ shifts. Discovery and fusion produce long
// [a,b) ∨ [b,c) ∨ … chains per shared model; merging them shrinks
// conditions.
//
// With tol ≤ 0 only windows with equal y = δ join, spread is 0 and the
// result is equivalent to d. With tol > 0 a lo-sorted run of touching
// windows joins while its δ spread stays ≤ tol, and the joined window
// carries the run's midpoint δ; spread is the largest spread of any joined
// run. Coverage and every tuple's first-match x shift are kept, and its
// first-match δ moves by at most spread/2, so a rule whose ρ grows by
// spread/2 stays sound (Generalization, Proposition 4).
//
// Merging regroups disjuncts, which would change MatchConjunction's
// first-match builtin if two disjuncts of different groups, or with
// different δ, overlapped. MergeWindows therefore requires every such pair
// to be disjoint and returns d unchanged (spread 0) otherwise, or when d
// has more than mergeMaxDisjuncts disjuncts.
func (d DNF) MergeWindows(tol float64) (DNF, float64) {
	if len(d.Conjs) > mergeMaxDisjuncts {
		return d, 0
	}
	tol = max(tol, 0)
	// Summarize each disjunct once and key it by its merge group.
	sums := make([]summary, len(d.Conjs))
	keys := make([]string, len(d.Conjs))
	for i, c := range d.Conjs {
		sums[i] = c.summarize()
		if attr, ok := sums[i].soleIntervalAttr(); ok {
			keys[i] = mergeKey(c, attr, tol > 0)
		} else {
			keys[i] = "passthrough|" + c.String()
		}
	}
	// The regroup guard. Each pair is decided from its two summaries,
	// without building their conjunction.
	for i := range sums {
		for j := i + 1; j < len(sums); j++ {
			same := keys[i] == keys[j] && d.Conjs[i].Builtin.YShift == d.Conjs[j].Builtin.YShift
			if !same && !sums[i].disjoint(sums[j]) {
				return d, 0
			}
		}
	}
	type window struct {
		conj Conjunction
		attr int
		iv   interval
	}
	groups := make(map[string][]window)
	var passthrough []Conjunction
	var order []string
	for i, c := range d.Conjs {
		attr, ok := sums[i].soleIntervalAttr()
		if !ok {
			passthrough = append(passthrough, c)
			continue
		}
		key := keys[i]
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], window{conj: c, attr: attr, iv: sums[i].numeric[attr]})
	}

	out := DNF{}
	var spread float64
	// emit closes a run whose joined window is cur and whose y shifts span
	// [dlo, dhi].
	emit := func(cur window, dlo, dhi float64) {
		c := rebuildWindow(cur.conj, cur.attr, cur.iv)
		if dhi > dlo {
			c.Builtin.YShift = (dlo + dhi) / 2
			spread = max(spread, dhi-dlo)
		}
		out.Conjs = append(out.Conjs, c)
	}
	for _, key := range order {
		ws := groups[key]
		sort.SliceStable(ws, func(i, j int) bool {
			if ws[i].iv.lo != ws[j].iv.lo {
				return ws[i].iv.lo < ws[j].iv.lo
			}
			return ws[i].iv.hi < ws[j].iv.hi
		})
		cur := ws[0]
		dlo, dhi := cur.conj.Builtin.YShift, cur.conj.Builtin.YShift
		for _, w := range ws[1:] {
			y := w.conj.Builtin.YShift
			lo, hi := min(dlo, y), max(dhi, y)
			if touches(cur.iv.hi, cur.iv.hiClosed, w.iv.lo, w.iv.loClosed) && hi-lo <= tol {
				// Extend the current window. A tie on lo keeps the end
				// closed if either window includes it.
				if w.iv.lo == cur.iv.lo && w.iv.loClosed {
					cur.iv.loClosed = true
				}
				if w.iv.hi > cur.iv.hi || (w.iv.hi == cur.iv.hi && w.iv.hiClosed) {
					cur.iv.hi, cur.iv.hiClosed = w.iv.hi, w.iv.hiClosed
				}
				dlo, dhi = lo, hi
				continue
			}
			emit(cur, dlo, dhi)
			cur, dlo, dhi = w, y, y
		}
		emit(cur, dlo, dhi)
	}
	out.Conjs = append(out.Conjs, passthrough...)
	return out, spread
}

// mergeMaxDisjuncts bounds the O(k²) regroup guard.
const mergeMaxDisjuncts = 2048

// touches reports whether an interval ending at (hi, hiClosed) connects to
// one starting at (lo, loClosed) with no gap: overlap, or exact adjacency
// where at least one side includes the boundary point.
func touches(hi float64, hiClosed bool, lo float64, loClosed bool) bool {
	if lo < hi {
		return true
	}
	if lo > hi {
		return false
	}
	return hiClosed || loClosed
}

// soleIntervalAttr finds the single numeric attribute the summarized
// conjunction constrains, requiring a consistent, satisfiable conjunction.
// ok is false when zero or several numeric attributes are constrained.
func (s summary) soleIntervalAttr() (int, bool) {
	if s.contradict || len(s.numeric) != 1 {
		return 0, false
	}
	for attr := range s.numeric {
		return attr, true
	}
	return 0, false
}

// mergeKey renders what the windows of one merge group share: the varying
// attribute, the other predicates (the categorical context) and the
// builtin, without its y = δ when dropY is set.
func mergeKey(c Conjunction, attr int, dropY bool) string {
	var parts []string
	for _, p := range c.Preds {
		if p.Attr != attr {
			parts = append(parts, p.String())
		}
	}
	sort.Strings(parts)
	b := c.Builtin
	if dropY {
		b = Builtin{XShift: b.XShift}
	}
	return strconv.Itoa(attr) + "|" + strings.Join(parts, "&") + "|" + b.String()
}

// rebuildWindow reconstructs the conjunction with the merged interval.
func rebuildWindow(template Conjunction, attr int, iv interval) Conjunction {
	out := Conjunction{Builtin: template.Builtin.Clone()}
	for _, p := range template.Preds {
		if p.Attr != attr {
			out.Preds = append(out.Preds, p)
		}
	}
	if iv.lo == iv.hi {
		out.Preds = append(out.Preds, NumPred(attr, Eq, iv.lo))
		return out
	}
	if !math.IsInf(iv.lo, -1) {
		op := Gt
		if iv.loClosed {
			op = Ge
		}
		out.Preds = append(out.Preds, NumPred(attr, op, iv.lo))
	}
	if !math.IsInf(iv.hi, 1) {
		op := Lt
		if iv.hiClosed {
			op = Le
		}
		out.Preds = append(out.Preds, NumPred(attr, op, iv.hi))
	}
	return out
}
