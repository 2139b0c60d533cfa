package verify

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
)

// The kernel oracle: discovery runs one scan engine, columnar, over a
// ColumnSet. This oracle re-derives tuple at a time every input that engine
// reads from the data — the lanes, the trainable rows and fallback, each
// part's SSE — and each node's split selection, through the reference
// scorer below, and checks them bitwise along the run's best-split tree.
// Agreement here makes discovery over a ColumnSet equal to discovery over
// the relation's tuples.

// kernelMaxNodes bounds the best-split tree walk per dataset.
const kernelMaxNodes = 256

// kernelTopSplits is how many split groups are checked per node.
const kernelTopSplits = 3

// KernelsVsTuples runs discovery over rel with cfg and, in place of the
// configured strategy, walks the best-split tree from the trainable rows,
// checking the substrate's kernels against tuple-at-a-time references over
// rel. At each node the substrate's TopSplits must return what the
// reference scorer (refTopSplits) selects — the same groups with the same
// predicates in the same order, each child selecting the same rows — and
// every group must partition the node's rows. It visits at most 256 nodes,
// descending only into parts above MinSupport. The result is "" on
// agreement and a description of the first divergence otherwise, naming the
// node and its condition.
func KernelsVsTuples(ctx context.Context, rel *dataset.Relation, cfg core.DiscoverConfig) (string, error) {
	k := &kernelWalk{rel: rel}
	cfg.Strategy = k
	if _, err := core.Discover(ctx, rel, core.WithConfig(cfg)); err != nil {
		return "", err
	}
	return k.detail, nil
}

// kernelWalk is the oracle as a core.Strategy: it emits no rules and records
// the first divergence it finds.
type kernelWalk struct {
	rel    *dataset.Relation
	detail string
}

func (k *kernelWalk) Name() string { return "kernels-vs-tuples" }

func (k *kernelWalk) Induce(ctx context.Context, sub *core.Substrate) (*core.DiscoverResult, error) {
	out := sub.NewResult()
	cfg := sub.Config()
	if k.detail = checkPrep(k.rel, sub.Columns(), cfg, sub.TrainableRows(), out.Rules.Fallback); k.detail != "" {
		return out, nil
	}
	si := newRefSplitIndex(cfg.Preds)
	type node struct {
		rows []int
		cond string
	}
	queue := []node{{sub.TrainableRows(), "⊤"}}
	for id := 0; len(queue) > 0 && id < kernelMaxNodes; id++ {
		if err := ctx.Err(); err != nil {
			return nil, core.Canceled(err)
		}
		n := queue[0]
		queue = queue[1:]
		groups := sub.TopSplits(n.rows, kernelTopSplits)
		want := refTopSplits(k.rel, si, cfg.YAttr, n.rows, kernelTopSplits)
		if k.detail = checkNode(k.rel, cfg.YAttr, id, n.cond, n.rows, sub.SSE(n.rows), groups, want); k.detail != "" {
			return out, nil
		}
		if len(groups) == 0 {
			continue
		}
		for _, ch := range groups[0] {
			if len(ch.Rows) > cfg.MinSupport {
				queue = append(queue, node{ch.Rows, n.cond + " ∧ " + ch.Pred.String()})
			}
		}
	}
	return out, nil
}

// checkPrep compares the run's prelude against tuple references: every lane
// the kernels read (Y, X and each predicate attribute) cell by cell, the
// trainable rows, and the mean-of-Y fallback.
func checkPrep(rel *dataset.Relation, cols *dataset.ColumnSet, cfg core.DiscoverConfig, all []int, fallback float64) string {
	attrs := map[int]bool{cfg.YAttr: true}
	for _, a := range cfg.XAttrs {
		attrs[a] = true
	}
	for _, p := range cfg.Preds {
		attrs[p.Attr] = true
	}
	if cols.Len() != rel.Len() {
		return fmt.Sprintf("columns hold %d rows, relation %d", cols.Len(), rel.Len())
	}
	for a := 0; a < cols.Schema.Len(); a++ {
		if !attrs[a] {
			continue
		}
		if d := diffLane(rel, cols, a); d != "" {
			return d
		}
	}
	want := trainableRows(rel, cfg.XAttrs, cfg.YAttr)
	if d := diffRows(all, want); d != "" {
		return "trainable rows: " + d
	}
	if len(want) > 0 {
		var ysum float64
		for _, i := range want {
			ysum += rel.Tuples[i][cfg.YAttr].Num
		}
		if w := ysum / float64(len(want)); !bitsEqual(fallback, w) {
			return fmt.Sprintf("fallback %v, tuples %v", fallback, w)
		}
	}
	return ""
}

// diffLane compares one column against the tuples' cells: float bits (raw
// Num, null cells included) for numeric lanes, the dictionary name with a
// null read as "" for categorical lanes, and the null flag for both.
func diffLane(rel *dataset.Relation, cols *dataset.ColumnSet, a int) string {
	numeric := cols.Schema.Attr(a).Kind == dataset.Numeric
	var f []float64
	var codes []uint32
	var dict []string
	if numeric {
		f = cols.Float(a)
	} else {
		codes, dict = cols.Codes(a), cols.Dict(a)
	}
	for i, t := range rel.Tuples {
		v := t[a]
		if cols.IsNull(a, i) != v.Null {
			return fmt.Sprintf("attr %d row %d: null flag %v, tuple %v", a, i, cols.IsNull(a, i), v.Null)
		}
		if numeric {
			if !bitsEqual(f[i], v.Num) {
				return fmt.Sprintf("attr %d row %d: lane %v, tuple %v", a, i, f[i], v.Num)
			}
			continue
		}
		name := ""
		if codes[i] != dataset.NullCode {
			name = dict[codes[i]]
		}
		if name != v.Str {
			return fmt.Sprintf("attr %d row %d: lane %q, tuple %q", a, i, name, v.Str)
		}
	}
	return ""
}

// checkNode compares one node's kernel outputs against tuple references:
// sse is the substrate's SSE of the part, groups its top split groups and
// want the reference scorer's. Each group must match the reference's
// predicates and rows exactly, and must partition the parent rows: every
// row in exactly one child.
func checkNode(rel *dataset.Relation, yattr, id int, cond string, rows []int, sse float64, groups, want [][]core.SplitChild) string {
	if w := tupleSSE(rel, rows, yattr); !bitsEqual(sse, w) {
		return fmt.Sprintf("node %d (%s): SSE %v, tuples %v", id, cond, sse, w)
	}
	if len(groups) != len(want) {
		return fmt.Sprintf("node %d (%s): %d split groups, reference scorer %d", id, cond, len(groups), len(want))
	}
	for gi, g := range groups {
		if d := diffGroup(g, want[gi]); d != "" {
			return fmt.Sprintf("node %d (%s): group %d: %s", id, cond, gi, d)
		}
		seen := make(map[int]bool, len(rows))
		for _, ch := range g {
			for _, r := range ch.Rows {
				if seen[r] {
					return fmt.Sprintf("node %d (%s): group %d selects row %d twice", id, cond, gi, r)
				}
				seen[r] = true
			}
		}
		if len(seen) != len(rows) {
			preds := make([]string, len(g))
			for i, ch := range g {
				preds[i] = ch.Pred.String()
			}
			return fmt.Sprintf("node %d (%s): group %d {%s} selects %d of %d rows",
				id, cond, gi, strings.Join(preds, ", "), len(seen), len(rows))
		}
	}
	return ""
}

// diffGroup compares a split group against the reference's, child by child:
// the predicate (its constant bitwise) and the selected rows.
func diffGroup(got, want []core.SplitChild) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d children, reference %d", len(got), len(want))
	}
	for i := range got {
		p, q := got[i].Pred, want[i].Pred
		if p.Attr != q.Attr || p.Op != q.Op || p.Categorical != q.Categorical || p.Str != q.Str || !bitsEqual(p.Num, q.Num) {
			return fmt.Sprintf("child %d is %s, reference %s", i, p.String(), q.String())
		}
		if d := diffRows(got[i].Rows, want[i].Rows); d != "" {
			return fmt.Sprintf("child %s: %s", p.String(), d)
		}
	}
	return ""
}

// refSplitIndex is the reference split structure of a predicate space: for
// each numeric attribute the cuts c with both ≤ c and > c in ℙ, ascending;
// for each categorical attribute its equality predicates, one per value in
// first-appearance order, and the set of those values.
type refSplitIndex struct {
	numAttrs  []int
	cuts      map[int][]float64
	catOrder  []int
	catPreds  map[int][]predicate.Predicate
	catValues map[int]map[string]bool
}

func newRefSplitIndex(preds []predicate.Predicate) *refSplitIndex {
	si := &refSplitIndex{
		cuts:      make(map[int][]float64),
		catPreds:  make(map[int][]predicate.Predicate),
		catValues: make(map[int]map[string]bool),
	}
	gt := make(map[int]map[float64]bool)
	le := make(map[int]map[float64]bool)
	for _, p := range preds {
		if p.Categorical {
			if si.catValues[p.Attr] == nil {
				si.catValues[p.Attr] = make(map[string]bool)
			}
			if !si.catValues[p.Attr][p.Str] {
				si.catValues[p.Attr][p.Str] = true
				si.catPreds[p.Attr] = append(si.catPreds[p.Attr], p)
			}
			continue
		}
		switch p.Op {
		case predicate.Gt:
			if gt[p.Attr] == nil {
				gt[p.Attr] = make(map[float64]bool)
			}
			gt[p.Attr][p.Num] = true
		case predicate.Le:
			if le[p.Attr] == nil {
				le[p.Attr] = make(map[float64]bool)
			}
			le[p.Attr][p.Num] = true
		}
	}
	for a, les := range le {
		var cuts []float64
		for c := range les {
			if gt[a][c] {
				cuts = append(cuts, c)
			}
		}
		if len(cuts) > 0 {
			sort.Float64s(cuts)
			si.cuts[a] = cuts
			si.numAttrs = append(si.numAttrs, a)
		}
	}
	sort.Ints(si.numAttrs)
	for a := range si.catPreds {
		si.catOrder = append(si.catOrder, a)
	}
	sort.Ints(si.catOrder)
	return si
}

// refCandidate is one scored split group of the reference scorer.
type refCandidate struct {
	gain    float64
	numeric bool
	attr    int
	cut     float64
}

// refTopSplits is the reference split scorer, tuple at a time: it scores
// every applicable group into a candidate list, sorts the whole list (gain
// descending, then attr and cut ascending) and selects the children of the
// first k with Predicate.Sat. A numeric attribute applies only when every
// row has a non-null, non-NaN value on it; its cuts are scored by sorting an
// index permutation with sort.Slice, prefix sums of y and y², and a binary
// search per cut. A categorical fan applies when it covers every value
// present. An empty part, or k < 1, has no split.
func refTopSplits(rel *dataset.Relation, si *refSplitIndex, yattr int, idxs []int, k int) [][]core.SplitChild {
	if len(idxs) == 0 || k < 1 {
		return nil
	}
	total := tupleSSE(rel, idxs, yattr)
	var cands []refCandidate

	for _, a := range si.numAttrs {
		cuts := si.cuts[a]
		// Sort the part once by the attribute value; prefix sums of y, y².
		vals := make([]float64, len(idxs))
		ys := make([]float64, len(idxs))
		order := make([]int, len(idxs))
		applicable := true
		for i, ti := range idxs {
			v := rel.Tuples[ti][a]
			if v.Null || math.IsNaN(v.Num) {
				applicable = false
				break
			}
			order[i] = i
			vals[i] = v.Num
			ys[i] = rel.Tuples[ti][yattr].Num
		}
		if !applicable {
			continue
		}
		sort.Slice(order, func(i, j int) bool { return vals[order[i]] < vals[order[j]] })
		sortedVals := make([]float64, len(order))
		s1 := make([]float64, len(order)+1)
		s2 := make([]float64, len(order)+1)
		for i, oi := range order {
			sortedVals[i] = vals[oi]
			s1[i+1] = s1[i] + ys[oi]
			s2[i+1] = s2[i] + ys[oi]*ys[oi]
		}
		n := len(order)
		sseRange := func(lo, hi int) float64 { // rows [lo,hi)
			cnt := float64(hi - lo)
			if cnt == 0 {
				return 0
			}
			sum := s1[hi] - s1[lo]
			return (s2[hi] - s2[lo]) - sum*sum/cnt
		}
		// Only cuts strictly inside the part's value range can split it.
		loCut := sort.SearchFloat64s(cuts, sortedVals[0])
		hiCut := sort.SearchFloat64s(cuts, sortedVals[n-1])
		for _, c := range cuts[loCut:hiCut] {
			pos := sort.SearchFloat64s(sortedVals, c)
			// pos = first index with value > c after adjusting for equals.
			for pos < n && sortedVals[pos] <= c {
				pos++
			}
			if pos == 0 || pos == n {
				continue
			}
			gain := total - sseRange(0, pos) - sseRange(pos, n)
			if gain > 0 {
				cands = append(cands, refCandidate{gain: gain, numeric: true, attr: a, cut: c})
			}
		}
	}

	// Categorical fans: group the part by value, a null cell as "".
	for _, a := range si.catOrder {
		byValue := make(map[string][]int)
		for _, ti := range idxs {
			v := rel.Tuples[ti][a]
			name := ""
			if !v.Null {
				name = v.Str
			}
			byValue[name] = append(byValue[name], ti)
		}
		if len(byValue) < 2 {
			continue
		}
		// The fan must cover every value present; child SSEs are summed in
		// sorted value order.
		present := si.catValues[a]
		values := make([]string, 0, len(byValue))
		covered := true
		for v := range byValue {
			if !present[v] {
				covered = false
				break
			}
			values = append(values, v)
		}
		if !covered {
			continue
		}
		sort.Strings(values)
		var childSSE float64
		for _, v := range values {
			childSSE += tupleSSE(rel, byValue[v], yattr)
		}
		if gain := total - childSSE; gain > 0 {
			cands = append(cands, refCandidate{gain: gain, attr: a})
		}
	}

	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		if cands[i].attr != cands[j].attr {
			return cands[i].attr < cands[j].attr
		}
		return cands[i].cut < cands[j].cut
	})
	if k > len(cands) {
		k = len(cands)
	}
	sat := func(p predicate.Predicate) []int {
		var out []int
		for _, ti := range idxs {
			if p.Sat(rel.Tuples[ti]) {
				out = append(out, ti)
			}
		}
		return out
	}
	out := make([][]core.SplitChild, 0, k)
	for _, cand := range cands[:k] {
		if cand.numeric {
			le := predicate.NumPred(cand.attr, predicate.Le, cand.cut)
			gt := predicate.NumPred(cand.attr, predicate.Gt, cand.cut)
			out = append(out, []core.SplitChild{{Pred: le, Rows: sat(le)}, {Pred: gt, Rows: sat(gt)}})
			continue
		}
		var parts []core.SplitChild
		for _, p := range si.catPreds[cand.attr] {
			if rows := sat(p); len(rows) > 0 {
				parts = append(parts, core.SplitChild{Pred: p, Rows: rows})
			}
		}
		out = append(out, parts)
	}
	return out
}

// tupleSSE is Σ (y − ȳ)² over the selected tuples' non-null targets,
// accumulated in rows order.
func tupleSSE(rel *dataset.Relation, rows []int, yattr int) float64 {
	var sum float64
	n := 0
	for _, i := range rows {
		if !rel.Tuples[i][yattr].Null {
			sum += rel.Tuples[i][yattr].Num
			n++
		}
	}
	if n == 0 {
		return 0
	}
	mean := sum / float64(n)
	var s float64
	for _, i := range rows {
		if !rel.Tuples[i][yattr].Null {
			d := rel.Tuples[i][yattr].Num - mean
			s += d * d
		}
	}
	return s
}

// diffRows compares two row selections, returning "" on identity.
func diffRows(got, want []int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, tuples select %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %d, tuples give %d", i, got[i], want[i])
		}
	}
	return ""
}

// ViolationsRows is the tuple-at-a-time reference for core.Violations: every
// (tuple, rule) pair where a covering rule's prediction misses a non-null
// target by more than ρ plus core's float slack, ordered by tuple then rule,
// with the tuple's Predict value as the repair.
func ViolationsRows(rel *dataset.Relation, s *core.RuleSet) []core.Violation {
	var out []core.Violation
	for ti, t := range rel.Tuples {
		if t[s.YAttr].Null {
			continue
		}
		for ri := range s.Rules {
			r := &s.Rules[ri]
			pred, ok := r.Predict(t)
			if !ok {
				continue
			}
			if dev := math.Abs(t[s.YAttr].Num - pred); dev > r.Rho+satSlack {
				repair, _ := s.Predict(t)
				out = append(out, core.Violation{
					TupleIndex: ti,
					RuleIndex:  ri,
					Observed:   t[s.YAttr].Num,
					Predicted:  pred,
					Excess:     dev - r.Rho,
					Repair:     repair,
				})
			}
		}
	}
	return out
}

// ExplainRow is the tuple-at-a-time reference for core.ExplainView: every
// rule of s evaluated against t, each covering rule through its first
// satisfied conjunction.
func ExplainRow(s *core.RuleSet, t dataset.Tuple) core.Explanation {
	out := core.Explanation{Prediction: s.Fallback}
	for ri := range s.Rules {
		r := &s.Rules[ri]
		ci := -1
		for i, c := range r.Cond.Conjs {
			if c.Sat(t) {
				ci = i
				break
			}
		}
		if ci < 0 {
			continue
		}
		pred, ok := r.Predict(t)
		if !ok {
			continue // null X cell
		}
		m := core.MatchInfo{
			RuleIndex:  ri,
			ConjIndex:  ci,
			Builtin:    r.Cond.Conjs[ci].Builtin,
			Prediction: pred,
			Deviation:  math.NaN(),
			Satisfied:  true,
		}
		if !t[s.YAttr].Null {
			m.Deviation = math.Abs(t[s.YAttr].Num - pred)
			m.Satisfied = m.Deviation <= r.Rho+satSlack
		}
		if !out.Covered {
			out.Covered = true
			out.Prediction = pred
		}
		out.Matches = append(out.Matches, m)
	}
	return out
}

// satSlack mirrors core's float slack on the ≤ ρ comparison.
const satSlack = 1e-9
