package predicate

import (
	"math"
	"sort"
	"strings"
)

// MergeAdjacent returns an equivalent DNF in which disjuncts that differ
// only in their interval on a single numeric attribute — with touching or
// overlapping intervals, identical context predicates and identical builtins
// — are collapsed into one disjunct. Discovery and fusion produce long
// chains of touching windows ([a,b) ∨ [b,c) ∨ …) per shared model; merging
// them shrinks conditions without changing semantics.
//
// Merging regroups disjuncts, which would change MatchConjunction's
// first-match builtin resolution if disjuncts from different groups
// overlapped; MergeAdjacent therefore verifies pairwise disjointness across
// groups first and returns the input unchanged when any cross-group overlap
// (or an oversized input) makes the merge unsafe.
func (d DNF) MergeAdjacent() DNF {
	if len(d.Conjs) > mergeMaxDisjuncts {
		return d
	}
	// Summarize each disjunct once and key it by its merge group.
	sums := make([]summary, len(d.Conjs))
	keys := make([]string, len(d.Conjs))
	for i, c := range d.Conjs {
		sums[i] = c.summarize()
		if attr, ok := sums[i].soleIntervalAttr(); ok {
			keys[i] = mergeKey(c, attr)
		} else {
			keys[i] = "passthrough|" + c.String()
		}
	}
	if !crossGroupsDisjoint(sums, keys) {
		return d
	}
	type window struct {
		conj               Conjunction
		attr               int
		lo, hi             float64
		loClosed, hiClosed bool
	}
	// Group disjuncts by (context without the varying attribute, builtin).
	groups := make(map[string][]window)
	var passthrough []Conjunction
	var order []string
	for i, c := range d.Conjs {
		attr, ok := sums[i].soleIntervalAttr()
		if !ok {
			passthrough = append(passthrough, c)
			continue
		}
		iv := sums[i].numeric[attr]
		key := keys[i]
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], window{
			conj: c, attr: attr,
			lo: iv.lo, hi: iv.hi, loClosed: iv.loClosed, hiClosed: iv.hiClosed,
		})
	}

	out := DNF{}
	for _, key := range order {
		ws := groups[key]
		sort.SliceStable(ws, func(i, j int) bool {
			if ws[i].lo != ws[j].lo {
				return ws[i].lo < ws[j].lo
			}
			return ws[i].hi < ws[j].hi
		})
		cur := ws[0]
		for _, w := range ws[1:] {
			if touches(cur.hi, cur.hiClosed, w.lo, w.loClosed) {
				// Extend the current window.
				if w.hi > cur.hi || (w.hi == cur.hi && w.hiClosed) {
					cur.hi, cur.hiClosed = w.hi, w.hiClosed
				}
				continue
			}
			out.Conjs = append(out.Conjs, rebuildWindow(cur.conj, cur.attr, cur.lo, cur.hi, cur.loClosed, cur.hiClosed))
			cur = w
		}
		out.Conjs = append(out.Conjs, rebuildWindow(cur.conj, cur.attr, cur.lo, cur.hi, cur.loClosed, cur.hiClosed))
	}
	out.Conjs = append(out.Conjs, passthrough...)
	return out
}

// mergeMaxDisjuncts bounds the O(k²) disjointness pre-check.
const mergeMaxDisjuncts = 2048

// crossGroupsDisjoint verifies that no two disjuncts from different merge
// groups (different context/builtin, or passthrough) can be satisfied by the
// same tuple, so regrouping cannot change first-match resolution. sums and
// keys are the disjuncts' summaries and merge keys; each pair is decided
// from its two summaries, without building their conjunction.
func crossGroupsDisjoint(sums []summary, keys []string) bool {
	for i := range sums {
		for j := i + 1; j < len(sums); j++ {
			if keys[i] == keys[j] {
				continue
			}
			if !sums[i].disjoint(sums[j]) {
				return false
			}
		}
	}
	return true
}

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

// mergeKey renders everything except the varying attribute's interval: the
// categorical context, other predicates, and the builtin.
func mergeKey(c Conjunction, attr int) string {
	var parts []string
	for _, p := range c.Preds {
		if p.Attr != attr {
			parts = append(parts, p.String())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "&") + "|" + c.Builtin.String()
}

// rebuildWindow reconstructs the conjunction with the merged interval.
func rebuildWindow(template Conjunction, attr int, lo, hi float64, loClosed, hiClosed bool) Conjunction {
	out := Conjunction{Builtin: template.Builtin.Clone()}
	for _, p := range template.Preds {
		if p.Attr != attr {
			out.Preds = append(out.Preds, p)
		}
	}
	if lo == hi {
		out.Preds = append(out.Preds, NumPred(attr, Eq, lo))
		return out
	}
	if !math.IsInf(lo, -1) {
		op := Gt
		if loClosed {
			op = Ge
		}
		out.Preds = append(out.Preds, NumPred(attr, op, lo))
	}
	if !math.IsInf(hi, 1) {
		op := Lt
		if hiClosed {
			op = Le
		}
		out.Preds = append(out.Preds, NumPred(attr, op, hi))
	}
	return out
}
