// Package core implements conditional regression rules (CRRs): the rule form
// φ : (f, ρ, ℂ) of Definition 1, the five inference rules of §IV
// (Reflexivity, Induction, Fusion, Generalization, Translation), the
// discovery algorithm with model sharing (Algorithm 1, §V-A) and the
// compaction algorithm (Algorithm 2, §V-B) of
//
//	Kang, Song, Wang. "Conditional Regression Rules". ICDE 2022.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// CRR is a conditional regression rule φ : (f, ρ, ℂ). The regression
// function f maps the values of attributes XAttrs to a prediction of YAttr;
// ρ bounds |t.Y − (f(t.X + x) + y)| on tuples satisfying ℂ, where the
// built-in shifts x, y are read from the conjunction of ℂ the tuple matches
// (§III-B).
type CRR struct {
	Model  regress.Model
	Rho    float64
	Cond   predicate.DNF
	XAttrs []int
	YAttr  int
}

// Covers reports whether tuple t satisfies the rule's condition ℂ.
func (r *CRR) Covers(t dataset.Tuple) bool { return r.Cond.Sat(t) }

// Predict evaluates f(t.X + x) + y for tuple t using the built-in predicates
// of the first conjunction of ℂ that t satisfies. ok is false when t does
// not satisfy ℂ or has a null X cell.
func (r *CRR) Predict(t dataset.Tuple) (pred float64, ok bool) {
	conj, ok := r.Cond.MatchConjunction(t)
	if !ok {
		return 0, false
	}
	x := make([]float64, len(r.XAttrs))
	for i, attr := range r.XAttrs {
		if t[attr].Null {
			return 0, false
		}
		x[i] = t[attr].Num + conj.Builtin.Shift(attr)
	}
	return r.Model.Predict(x) + conj.Builtin.YShift, true
}

// Sat implements the CRR semantics t ⊨ φ: vacuously true when t ⊭ ℂ,
// otherwise |t.Y − (f(t.X + x) + y)| ≤ ρ. Tuples with a null Y or X cell
// under a matching condition count as violations only when the prediction is
// checkable; a null Y cannot be checked and is treated as satisfying
// (missing data is what CRRs are later used to impute).
func (r *CRR) Sat(t dataset.Tuple) bool {
	pred, ok := r.Predict(t)
	if !ok {
		return true
	}
	if t[r.YAttr].Null {
		return true
	}
	return math.Abs(t[r.YAttr].Num-pred) <= r.Rho+satSlack
}

// satSlack absorbs float rounding in the ≤ ρ comparison; ρ itself is
// computed from the same float pipeline, so exact ties are common.
const satSlack = 1e-9

// Trivial implements the Reflexivity check (Proposition 1): a rule whose
// target also appears among its inputs is trivially satisfiable and must be
// excluded from discovery output.
func (r *CRR) Trivial() bool {
	for _, a := range r.XAttrs {
		if a == r.YAttr {
			return true
		}
	}
	return false
}

// String renders the rule without schema names.
func (r *CRR) String() string {
	return fmt.Sprintf("(%s, ρ=%.4g, %s)", r.Model.Family(), r.Rho, r.Cond.String())
}

// Format renders the rule with attribute names.
func (r *CRR) Format(schema *dataset.Schema) string {
	return fmt.Sprintf("f:%s→%s [%s], ρ=%.4g, ℂ=%s",
		attrNames(schema, r.XAttrs), schema.Attr(r.YAttr).Name,
		r.Model.Family(), r.Rho, r.Cond.Format(schema))
}

func attrNames(schema *dataset.Schema, idxs []int) string {
	s := ""
	for i, idx := range idxs {
		if i > 0 {
			s += ","
		}
		s += schema.Attr(idx).Name
	}
	return s
}

// RuleSet is a discovered set Σ of CRRs over one (X, Y) attribute choice,
// with a constant fallback for tuples no rule covers.
//
// Predict and Covering lazily build an interval index over the
// conjunctions' bounds on the first X attribute; concurrent calls are safe,
// but mutating Rules requires calling Invalidate before the next one.
type RuleSet struct {
	Schema   *dataset.Schema
	XAttrs   []int
	YAttr    int
	Rules    []CRR
	Fallback float64 // prediction for uncovered tuples (training mean of Y)

	idx   atomic.Pointer[ruleIndex]
	idxMu sync.Mutex

	lookups, misses        *telemetry.Counter
	colsBuild, rowsScanned *telemetry.Counter
	filterSel              *telemetry.Distribution
}

// Invalidate discards the lazily built prediction index; call it after
// mutating Rules.
func (s *RuleSet) Invalidate() { s.idx.Store(nil) }

// SetTelemetry attaches a metrics registry to classification: every
// Predict increments predict.index_lookups, and lookups that fall back to
// the training mean increment predict.index_misses. The columnar predict
// path (PredictBatch/PredictView) reports the same two counters per row, and
// PredictBatch its column build under columns.build_ns. The columnar walk
// behind PredictView, ViolationsColumns and ExplainView reports
// filter.rows_scanned and filter.selectivity for every filter sweep. A nil
// registry detaches (nil handles no-op, so every path stays branch-free).
func (s *RuleSet) SetTelemetry(r *telemetry.Registry) {
	if r == nil {
		s.lookups, s.misses = nil, nil
		s.colsBuild, s.rowsScanned, s.filterSel = nil, nil, nil
		return
	}
	s.lookups = r.Counter(telemetry.MetricIndexLookups)
	s.misses = r.Counter(telemetry.MetricIndexMisses)
	s.colsBuild = r.Counter(telemetry.MetricColumnsBuild)
	s.rowsScanned = r.Counter(telemetry.MetricFilterRowsScanned)
	s.filterSel = r.Distribution(telemetry.MetricFilterSelectivity)
}

// index returns the prediction index, building it once under a mutex so
// concurrent Predict calls are safe.
func (s *RuleSet) index() *ruleIndex {
	if idx := s.idx.Load(); idx != nil {
		return idx
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if idx := s.idx.Load(); idx != nil {
		return idx
	}
	idx := buildRuleIndex(s)
	s.idx.Store(idx)
	return idx
}

// Predict returns the prediction of the first covering rule, falling back to
// the training mean when no rule covers t. covered reports which case
// applied. First-rule/first-conjunction semantics match a linear scan.
func (s *RuleSet) Predict(t dataset.Tuple) (pred float64, covered bool) {
	s.lookups.Inc()
	var first [1]CoveringEntry
	es := s.index().walk(s, t, first[:0], true)
	if len(es) == 0 {
		s.misses.Inc()
		return s.Fallback, false
	}
	rule := &s.Rules[es[0].Rule]
	conj := rule.Cond.Conjs[es[0].Conj]
	x := make([]float64, len(rule.XAttrs))
	for i, attr := range rule.XAttrs {
		x[i] = t[attr].Num + conj.Builtin.Shift(attr)
	}
	return rule.Model.Predict(x) + conj.Builtin.YShift, true
}

// ruleIndex is a uniform-grid interval index over the conjunction bounds on
// one numeric attribute. Conjunctions without numeric bounds on that
// attribute live in overflow and are checked for every lookup. For the
// disjoint condition windows discovery produces, lookups touch O(1)
// candidates instead of scanning every disjunct. Every bucket and the
// overflow list hold their entries in (rule, conj) order.
type ruleIndex struct {
	attr     int
	lo, hi   float64
	width    float64
	buckets  [][]CoveringEntry
	overflow []CoveringEntry
}

func buildRuleIndex(s *RuleSet) *ruleIndex {
	idx := &ruleIndex{attr: -1, lo: math.Inf(1), hi: math.Inf(-1)}
	if len(s.XAttrs) > 0 {
		idx.attr = s.XAttrs[0]
	}
	type span struct {
		e       CoveringEntry
		lo, hi  float64
		bounded bool
	}
	var spans []span
	bounded := 0
	for ri := range s.Rules {
		for ci, conj := range s.Rules[ri].Cond.Conjs {
			sp := span{e: CoveringEntry{Rule: ri, Conj: ci}}
			if idx.attr >= 0 {
				sp.lo, sp.hi, sp.bounded = conj.NumericBounds(idx.attr)
				sp.bounded = sp.bounded && !(math.IsInf(sp.lo, -1) && math.IsInf(sp.hi, 1))
			}
			if sp.bounded {
				bounded++
				if !math.IsInf(sp.lo, -1) && sp.lo < idx.lo {
					idx.lo = sp.lo
				}
				if !math.IsInf(sp.hi, 1) && sp.hi > idx.hi {
					idx.hi = sp.hi
				}
			}
			spans = append(spans, sp)
		}
	}
	// A degenerate grid leaves every span in overflow.
	if bounded > 0 && !math.IsInf(idx.lo, 1) && !math.IsInf(idx.hi, -1) && idx.lo < idx.hi {
		idx.buckets = make([][]CoveringEntry, max(bounded, 16))
		idx.width = (idx.hi - idx.lo) / float64(len(idx.buckets))
	}
	for _, sp := range spans {
		if !sp.bounded || idx.buckets == nil {
			idx.overflow = append(idx.overflow, sp.e)
			continue
		}
		for b := idx.bucketOf(sp.lo); b <= idx.bucketOf(sp.hi); b++ {
			idx.buckets[b] = append(idx.buckets[b], sp.e)
		}
	}
	return idx
}

func (idx *ruleIndex) bucketOf(v float64) int {
	if math.IsInf(v, -1) || v < idx.lo {
		return 0
	}
	if math.IsInf(v, 1) || v >= idx.hi {
		return len(idx.buckets) - 1
	}
	b := int((v - idx.lo) / idx.width)
	if b >= len(idx.buckets) {
		b = len(idx.buckets) - 1
	}
	return b
}

// walk merges t's bucket with the overflow list in (rule, conj) order, so
// its semantics equal a linear scan over every rule, and appends to dst each
// covering rule's first satisfied conjunction. A rule drops out at that
// conjunction, and a null X cell disqualifies it. With first set, the walk
// stops at the first covering rule (Predict); otherwise it collects all of
// them (Covering).
func (idx *ruleIndex) walk(s *RuleSet, t dataset.Tuple, dst []CoveringEntry, first bool) []CoveringEntry {
	var bucket []CoveringEntry
	if idx.buckets != nil {
		// NaN fails every numeric bound, so like null it picks no bucket.
		if v := t[idx.attr]; !v.Null && !math.IsNaN(v.Num) {
			bucket = idx.buckets[idx.bucketOf(v.Num)]
		}
	}
	over := idx.overflow
	last := -1
	for i, j := 0, 0; i < len(bucket) || j < len(over); {
		var e CoveringEntry
		if j == len(over) || (i < len(bucket) && bucket[i].less(over[j])) {
			e, i = bucket[i], i+1
		} else {
			e, j = over[j], j+1
		}
		if e.Rule == last {
			continue
		}
		rule := &s.Rules[e.Rule]
		if !rule.Cond.Conjs[e.Conj].Sat(t) {
			continue
		}
		last = e.Rule
		if !nullX(t, rule.XAttrs) {
			dst = append(dst, e)
			if first {
				break
			}
		}
	}
	return dst
}

// nullX reports whether any of t's cells in xattrs is null.
func nullX(t dataset.Tuple, xattrs []int) bool {
	for _, attr := range xattrs {
		if t[attr].Null {
			return true
		}
	}
	return false
}

// Coverage returns the fraction of tuples in rel covered by some rule. It
// classifies columnar-first (one PredictBatch pass); coverage flags equal
// the per-tuple Predict outcome.
func (s *RuleSet) Coverage(rel *dataset.Relation) float64 {
	if rel.Len() == 0 {
		return 1
	}
	_, covered := s.PredictBatch(rel)
	n := 0
	for _, c := range covered {
		if c {
			n++
		}
	}
	return float64(n) / float64(rel.Len())
}

// RMSE evaluates the rule set's root-mean-square error on rel, skipping
// tuples with a null target. It classifies columnar-first (one PredictBatch
// pass).
func (s *RuleSet) RMSE(rel *dataset.Relation) float64 {
	preds, _ := s.PredictBatch(rel)
	var sum float64
	n := 0
	for i, t := range rel.Tuples {
		if t[s.YAttr].Null {
			continue
		}
		d := t[s.YAttr].Num - preds[i]
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// NumRules returns |Σ|.
func (s *RuleSet) NumRules() int { return len(s.Rules) }

// XNames returns the ordered names of the regression input attributes, or
// nil when the set carries no schema.
func (s *RuleSet) XNames() []string {
	if s.Schema == nil {
		return nil
	}
	out := make([]string, len(s.XAttrs))
	for i, a := range s.XAttrs {
		out[i] = s.Schema.Attr(a).Name
	}
	return out
}

// YName returns the target attribute's name, or "" when the set carries no
// schema.
func (s *RuleSet) YName() string {
	if s.Schema == nil {
		return ""
	}
	return s.Schema.Attr(s.YAttr).Name
}

// CondAttrs returns the sorted set of attribute indices referenced by any
// rule condition — ordinary predicates and built-in shift predicates alike.
// These are the columns a payload must be allowed to constrain.
func (s *RuleSet) CondAttrs() []int {
	seen := make(map[int]bool)
	for i := range s.Rules {
		for _, c := range s.Rules[i].Cond.Conjs {
			for _, p := range c.Preds {
				seen[p.Attr] = true
			}
			for attr := range c.Builtin.XShift {
				seen[attr] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// NumModels returns the number of distinct regression models among the
// rules, where distinct means not Equal within modelTol. This is the
// quantity model sharing minimizes.
func (s *RuleSet) NumModels() int {
	var models []regress.Model
outer:
	for i := range s.Rules {
		for _, m := range models {
			if s.Rules[i].Model.Equal(m, modelTol) {
				continue outer
			}
		}
		models = append(models, s.Rules[i].Model)
	}
	return len(models)
}

// modelTol is the parameter tolerance under which two models count as the
// same regression function for sharing and fusion purposes.
const modelTol = 1e-6

// Holds reports whether every tuple of rel satisfies every rule of the set
// (the data-satisfaction invariant Σ must keep after discovery and
// compaction).
func (s *RuleSet) Holds(rel *dataset.Relation) bool {
	for _, t := range rel.Tuples {
		for i := range s.Rules {
			if !s.Rules[i].Sat(t) {
				return false
			}
		}
	}
	return true
}

// FeatureRows extracts the X design matrix and Y target for the given tuple
// indices of rel, skipping tuples with a null X or Y cell. The returned
// kept slice holds the relation indices actually used.
func FeatureRows(rel *dataset.Relation, idxs []int, xattrs []int, yattr int) (x [][]float64, y []float64, kept []int) {
	for _, ti := range idxs {
		t := rel.Tuples[ti]
		if t[yattr].Null {
			continue
		}
		row := make([]float64, len(xattrs))
		null := false
		for i, a := range xattrs {
			if t[a].Null {
				null = true
				break
			}
			row[i] = t[a].Num
		}
		if null {
			continue
		}
		x = append(x, row)
		y = append(y, t[yattr].Num)
		kept = append(kept, ti)
	}
	return x, y, kept
}
