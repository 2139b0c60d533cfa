package verify

import (
	"context"
	"fmt"
	"math"
	"strings"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
)

// The kernel oracle: discovery runs one scan engine, columnar, over a
// ColumnSet. This oracle re-derives tuple at a time every input that engine
// reads from the data — the lanes, the trainable rows and fallback, each
// part's SSE and each split child's selection — and checks them bitwise
// along the run's best-split tree. The split arithmetic on top of those
// inputs is a single shared implementation, so agreement here makes
// discovery over a ColumnSet equal to discovery over the relation's tuples.

// kernelMaxNodes bounds the best-split tree walk per dataset.
const kernelMaxNodes = 256

// kernelTopSplits is how many split groups are checked per node.
const kernelTopSplits = 3

// KernelsVsTuples runs discovery over rel with cfg and, in place of the
// configured strategy, walks the best-split tree from the trainable rows,
// checking the substrate's kernels against tuple-at-a-time references over
// rel. It visits at most 256 nodes, descending only into parts above
// MinSupport. The result is "" on agreement and a description of the first
// divergence otherwise, naming the node and its condition.
func KernelsVsTuples(ctx context.Context, rel *dataset.Relation, cfg core.DiscoverConfig) (string, error) {
	k := &kernelWalk{rel: rel}
	if _, err := core.Discover(ctx, rel, core.WithConfig(cfg), core.WithStrategy(k)); err != nil {
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
		if k.detail = checkNode(k.rel, cfg.YAttr, id, n.cond, n.rows, sub.SSE(n.rows), groups); k.detail != "" {
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
// sse is the substrate's SSE of the part, groups its top split groups. Each
// child must select exactly the parent rows whose tuples satisfy the child's
// predicate, and a categorical fan must partition the parent.
func checkNode(rel *dataset.Relation, yattr, id int, cond string, rows []int, sse float64, groups [][]core.SplitChild) string {
	if w := tupleSSE(rel, rows, yattr); !bitsEqual(sse, w) {
		return fmt.Sprintf("node %d (%s): SSE %v, tuples %v", id, cond, sse, w)
	}
	for gi, g := range groups {
		seen := 0
		categorical := len(g) > 0
		for _, ch := range g {
			var want []int
			for _, i := range rows {
				if ch.Pred.Sat(rel.Tuples[i]) {
					want = append(want, i)
				}
			}
			if d := diffRows(ch.Rows, want); d != "" {
				return fmt.Sprintf("node %d (%s): group %d child %s: %s", id, cond, gi, ch.Pred.String(), d)
			}
			seen += len(ch.Rows)
			categorical = categorical && ch.Pred.Categorical
		}
		if categorical && seen != len(rows) {
			preds := make([]string, len(g))
			for i, ch := range g {
				preds[i] = ch.Pred.String()
			}
			return fmt.Sprintf("node %d (%s): group %d fan {%s} selects %d of %d rows",
				id, cond, gi, strings.Join(preds, ", "), seen, len(rows))
		}
	}
	return ""
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
