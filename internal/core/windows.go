package core

// MergeWindows collapses chains of touching condition windows within each
// rule whose y = δ builtins agree within deltaTol (predicate.DNF.MergeWindows)
// and widens the rule's ρ by half the largest δ spread it joined. The
// rewrite is sound: a tuple previously guaranteed |y − (f+δᵢ)| ≤ ρ satisfies
// |y − (f+δ*)| ≤ ρ + |δᵢ − δ*| ≤ ρ + spread/2 (Generalization, Proposition 4).
// A rule whose merge would regroup overlapping windows of different
// builtins is left unchanged. deltaTol ≤ 0 merges only exactly-equal shifts.
//
// The returned set replaces s; the input is not modified.
func MergeWindows(s *RuleSet, deltaTol float64) *RuleSet {
	out := &RuleSet{
		Schema:   s.Schema,
		XAttrs:   append([]int(nil), s.XAttrs...),
		YAttr:    s.YAttr,
		Fallback: s.Fallback,
	}
	out.Rules = make([]CRR, len(s.Rules))
	for i := range s.Rules {
		out.Rules[i] = s.Rules[i]
		cond, spread := s.Rules[i].Cond.MergeWindows(deltaTol)
		out.Rules[i].Cond = cond
		out.Rules[i].Rho = s.Rules[i].Rho + spread/2
	}
	return out
}
