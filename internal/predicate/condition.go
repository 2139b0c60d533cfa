package predicate

import (
	"math"
	"strings"

	"github.com/crrlab/crr/internal/dataset"
)

// Conjunction is ⋀ p over a predicate set, plus the conjunction's built-in
// translation predicates (paper §III-A2, §III-A3). The empty conjunction is
// the most general condition and is satisfied by every tuple.
type Conjunction struct {
	Preds   []Predicate
	Builtin Builtin
}

// NewConjunction builds a conjunction over preds with the zero builtin.
func NewConjunction(preds ...Predicate) Conjunction {
	return Conjunction{Preds: append([]Predicate(nil), preds...)}
}

// Sat reports whether tuple t satisfies every predicate (builtins are always
// satisfied, per §III-A1).
func (c Conjunction) Sat(t dataset.Tuple) bool {
	for _, p := range c.Preds {
		if !p.Sat(t) {
			return false
		}
	}
	return true
}

// And returns a new conjunction with p appended (C ∧ p).
func (c Conjunction) And(p Predicate) Conjunction {
	out := c.Clone()
	out.Preds = append(out.Preds, p)
	return out
}

// Clone deep-copies the conjunction.
func (c Conjunction) Clone() Conjunction {
	return Conjunction{
		Preds:   append([]Predicate(nil), c.Preds...),
		Builtin: c.Builtin.Clone(),
	}
}

// interval is the per-attribute solution set of a conjunction's numeric
// predicates: lo < v (or ≤ when loClosed) and v < hi (or ≤ when hiClosed).
type interval struct {
	lo, hi             float64
	loClosed, hiClosed bool
}

func fullInterval() interval {
	return interval{lo: math.Inf(-1), hi: math.Inf(1), loClosed: true, hiClosed: true}
}

// intersect tightens the interval with predicate p; it reports false when the
// result is empty.
func (iv *interval) intersect(p Predicate) bool {
	switch p.Op {
	case Eq:
		if p.Num > iv.lo || (p.Num == iv.lo && iv.loClosed) {
			iv.lo, iv.loClosed = p.Num, true
		} else if p.Num != iv.lo || !iv.loClosed {
			return false
		}
		if p.Num < iv.hi || (p.Num == iv.hi && iv.hiClosed) {
			iv.hi, iv.hiClosed = p.Num, true
		} else if p.Num != iv.hi || !iv.hiClosed {
			return false
		}
	case Gt:
		if p.Num > iv.lo || (p.Num == iv.lo && iv.loClosed) {
			iv.lo, iv.loClosed = p.Num, false
		}
	case Ge:
		if p.Num > iv.lo {
			iv.lo, iv.loClosed = p.Num, true
		}
	case Lt:
		if p.Num < iv.hi || (p.Num == iv.hi && iv.hiClosed) {
			iv.hi, iv.hiClosed = p.Num, false
		}
	case Le:
		if p.Num < iv.hi {
			iv.hi, iv.hiClosed = p.Num, true
		}
	}
	return !iv.empty()
}

func (iv interval) empty() bool {
	if iv.lo > iv.hi {
		return true
	}
	if iv.lo == iv.hi && (!iv.loClosed || !iv.hiClosed) {
		return true
	}
	return false
}

// contains reports whether every point of iv satisfies predicate q.
func (iv interval) contains(q Predicate) bool {
	switch q.Op {
	case Eq:
		return iv.lo == q.Num && iv.hi == q.Num && iv.loClosed && iv.hiClosed
	case Gt:
		return iv.lo > q.Num || (iv.lo == q.Num && !iv.loClosed)
	case Ge:
		return iv.lo >= q.Num
	case Lt:
		return iv.hi < q.Num || (iv.hi == q.Num && !iv.hiClosed)
	case Le:
		return iv.hi <= q.Num
	default:
		return false
	}
}

// summary is the normalized view of a conjunction used by implication and
// satisfiability checks.
type summary struct {
	numeric     map[int]interval
	categorical map[int]string // attr → required value
	contradict  bool
	// nan marks a contradiction caused by a NaN predicate constant. Such a
	// predicate is satisfied by no tuple (every comparison with NaN is
	// false), so the conjunction is unsatisfiable — but entails refuses to
	// derive implications from it: an implication "proved" from a garbage
	// constant must never count as sound (see entails).
	nan bool
}

func (c Conjunction) summarize() summary {
	s := summary{numeric: make(map[int]interval), categorical: make(map[int]string)}
	for _, p := range c.Preds {
		if p.Categorical {
			if prev, ok := s.categorical[p.Attr]; ok && prev != p.Str {
				s.contradict = true
				return s
			}
			s.categorical[p.Attr] = p.Str
			continue
		}
		if math.IsNaN(p.Num) {
			// A NaN constant admits no satisfying value regardless of the
			// operator. The naive interval intersection would silently
			// ignore it on Gt/Ge/Lt/Le (NaN comparisons are all false,
			// leaving the interval untouched), so Normalize would "simplify"
			// an unsatisfiable conjunction into a strictly more general one.
			s.contradict = true
			s.nan = true
			return s
		}
		iv, ok := s.numeric[p.Attr]
		if !ok {
			iv = fullInterval()
		}
		if !iv.intersect(p) {
			s.contradict = true
			return s
		}
		s.numeric[p.Attr] = iv
	}
	return s
}

// disjoint reports whether no tuple satisfies both summarized conjunctions:
// Conjunction{Preds: a.Preds ++ b.Preds}.Unsatisfiable(), decided from the
// two summaries alone. That holds when either side is contradictory, a
// shared categorical attribute requires different values, or a shared
// numeric attribute's intervals do not meet.
func (s summary) disjoint(t summary) bool {
	if s.contradict || t.contradict {
		return true
	}
	for a, v := range s.categorical {
		if w, ok := t.categorical[a]; ok && w != v {
			return true
		}
	}
	for a, iv := range s.numeric {
		if jv, ok := t.numeric[a]; ok && iv.meet(jv).empty() {
			return true
		}
	}
	return false
}

// meet returns the intersection of two intervals, tightening each end under
// the open/closed rules of intersect.
func (iv interval) meet(jv interval) interval {
	if jv.lo > iv.lo || (jv.lo == iv.lo && !jv.loClosed) {
		iv.lo, iv.loClosed = jv.lo, jv.loClosed
	}
	if jv.hi < iv.hi || (jv.hi == iv.hi && !jv.hiClosed) {
		iv.hi, iv.hiClosed = jv.hi, jv.hiClosed
	}
	return iv
}

// Unsatisfiable reports whether no tuple can satisfy the conjunction (e.g.
// A > 5 ∧ A < 3). Satisfiability here is over the unrestricted attribute
// domains, which is sound for pruning the search queue.
func (c Conjunction) Unsatisfiable() bool {
	return c.summarize().contradict
}

// Normalize returns an equivalent conjunction with the minimal predicate
// set: one categorical equality per attribute and at most two interval
// bounds per numeric attribute (an equality when the interval is a point).
// Discovery accumulates a predicate per refinement step, so normalizing
// keeps emitted rules readable. Builtins are preserved. Unsatisfiable
// conjunctions are returned unchanged.
func (c Conjunction) Normalize() Conjunction {
	s := c.summarize()
	if s.contradict {
		return c
	}
	out := Conjunction{Builtin: c.Builtin.Clone()}
	// Keep first-appearance attribute order for stable output.
	seen := make(map[int]bool)
	for _, p := range c.Preds {
		if seen[p.Attr] {
			continue
		}
		seen[p.Attr] = true
		if p.Categorical {
			out.Preds = append(out.Preds, StrPred(p.Attr, s.categorical[p.Attr]))
			continue
		}
		iv := s.numeric[p.Attr]
		switch {
		case iv.lo == iv.hi:
			out.Preds = append(out.Preds, NumPred(p.Attr, Eq, iv.lo))
		default:
			if !math.IsInf(iv.lo, -1) {
				op := Gt
				if iv.loClosed {
					op = Ge
				}
				out.Preds = append(out.Preds, NumPred(p.Attr, op, iv.lo))
			}
			if !math.IsInf(iv.hi, 1) {
				op := Lt
				if iv.hiClosed {
					op = Le
				}
				out.Preds = append(out.Preds, NumPred(p.Attr, op, iv.hi))
			}
		}
	}
	return out
}

// NumericBounds returns the interval [lo, hi] the conjunction's numeric
// predicates allow for attribute attr (±Inf when unbounded). ok is false
// when the conjunction has no numeric predicate on attr or is contradictory.
func (c Conjunction) NumericBounds(attr int) (lo, hi float64, ok bool) {
	s := c.summarize()
	if s.contradict {
		return 0, 0, false
	}
	iv, found := s.numeric[attr]
	if !found {
		return 0, 0, false
	}
	return iv.lo, iv.hi, true
}

// Implies reports C ⊢ D: every tuple satisfying c satisfies d.
// The check is the standard sound interval entailment: each predicate of d
// must be entailed by c's per-attribute solution set. An unsatisfiable c
// implies everything.
func (c Conjunction) Implies(d Conjunction) bool {
	return c.summarize().entails(d)
}

// entails reports whether the summarized solution set satisfies every
// predicate of d.
func (cs summary) entails(d Conjunction) bool {
	if cs.nan {
		// Vacuous truth is logically available (a NaN-constant conjunction
		// covers nothing), but claiming it would let corrupted conditions
		// imply anything; stay conservative and refuse.
		return false
	}
	if cs.contradict {
		return true
	}
	for _, q := range d.Preds {
		if q.Categorical {
			if v, ok := cs.categorical[q.Attr]; !ok || q.Op != Eq || v != q.Str {
				return false
			}
			continue
		}
		iv, ok := cs.numeric[q.Attr]
		if !ok {
			return false
		}
		if !iv.contains(q) {
			return false
		}
	}
	return true
}

// Equivalent reports mutual implication of the predicate parts.
func (c Conjunction) Equivalent(d Conjunction) bool {
	return c.Implies(d) && d.Implies(c)
}

// String renders the conjunction; the empty conjunction renders as "⊤".
func (c Conjunction) String() string {
	var parts []string
	for _, p := range c.Preds {
		parts = append(parts, p.String())
	}
	if bs := c.Builtin.String(); bs != "" {
		parts = append(parts, bs)
	}
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

// Format renders the conjunction with attribute names from schema.
func (c Conjunction) Format(schema *dataset.Schema) string {
	var parts []string
	for _, p := range c.Preds {
		parts = append(parts, p.Format(schema))
	}
	if bs := c.Builtin.String(); bs != "" {
		parts = append(parts, bs)
	}
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

// DNF is a disjunction of conjunctions ℂ = C₁ ∨ … ∨ Cₙ (paper §III-A2).
type DNF struct {
	Conjs []Conjunction
}

// NewDNF builds a DNF from conjunctions.
func NewDNF(conjs ...Conjunction) DNF {
	return DNF{Conjs: append([]Conjunction(nil), conjs...)}
}

// Sat reports whether some conjunction is satisfied by t. The empty DNF is
// satisfied by no tuple.
func (d DNF) Sat(t dataset.Tuple) bool {
	for _, c := range d.Conjs {
		if c.Sat(t) {
			return true
		}
	}
	return false
}

// MatchConjunction returns the first conjunction satisfied by t, for reading
// off the built-in predicates to apply; ok is false when none matches.
func (d DNF) MatchConjunction(t dataset.Tuple) (Conjunction, bool) {
	for _, c := range d.Conjs {
		if c.Sat(t) {
			return c, true
		}
	}
	return Conjunction{}, false
}

// Or returns d ∨ e (Fusion on conditions).
func (d DNF) Or(e DNF) DNF {
	out := DNF{Conjs: make([]Conjunction, 0, len(d.Conjs)+len(e.Conjs))}
	out.Conjs = append(out.Conjs, d.Conjs...)
	out.Conjs = append(out.Conjs, e.Conjs...)
	return out
}

// Implies implements Definition 2: ℂ₁ ⊢ ℂ₂ iff for every conjunction
// C₁ ∈ ℂ₁ there exists C₂ ∈ ℂ₂ with C₁ ⊢ C₂.
func (d DNF) Implies(e DNF) bool {
	for _, c1 := range d.Conjs {
		found := false
		for _, c2 := range e.Conjs {
			if c1.Implies(c2) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Clone deep-copies the DNF.
func (d DNF) Clone() DNF {
	out := DNF{Conjs: make([]Conjunction, len(d.Conjs))}
	for i, c := range d.Conjs {
		out.Conjs[i] = c.Clone()
	}
	return out
}

// Simplify drops unsatisfiable conjunctions and conjunctions subsumed by
// another disjunct with identical builtins. The result is logically
// equivalent and never larger. Summaries are computed once per conjunction,
// so the pairwise subsumption pass costs O(k²) cheap checks rather than
// O(k²) re-normalizations.
func (d DNF) Simplify() DNF {
	kept := make([]Conjunction, 0, len(d.Conjs))
	sums := make([]summary, 0, len(d.Conjs))
	for _, c := range d.Conjs {
		s := c.summarize()
		if !s.contradict {
			kept = append(kept, c)
			sums = append(sums, s)
		}
	}
	out := make([]Conjunction, 0, len(kept))
	for i, c := range kept {
		subsumed := false
		for j, other := range kept {
			if i == j || !c.Builtin.Equal(other.Builtin) {
				continue
			}
			// c is dropped when other strictly contains it, or when they are
			// equivalent and other comes first (keep one representative).
			if sums[i].entails(other) && (!sums[j].entails(c) || j < i) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, c)
		}
	}
	return DNF{Conjs: out}
}

// String renders the DNF.
func (d DNF) String() string {
	if len(d.Conjs) == 0 {
		return "⊥"
	}
	parts := make([]string, len(d.Conjs))
	for i, c := range d.Conjs {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " ∨ ")
}

// Format renders the DNF with attribute names.
func (d DNF) Format(schema *dataset.Schema) string {
	if len(d.Conjs) == 0 {
		return "⊥"
	}
	parts := make([]string, len(d.Conjs))
	for i, c := range d.Conjs {
		parts[i] = "(" + c.Format(schema) + ")"
	}
	return strings.Join(parts, " ∨ ")
}
