package core

import "github.com/crrlab/crr/internal/dataset"

// CRRs are integrity constraints (§II-A): a tuple covered by a rule whose
// observed target strays beyond ρ from the (shifted) prediction violates the
// rule. This file detects violations and proposes repairs — the
// constraint-side counterpart of imputation.

// Violation records one tuple breaking one rule.
type Violation struct {
	// TupleIndex is the position of the violating tuple in the checked
	// relation.
	TupleIndex int
	// RuleIndex is the violated rule's position in the rule set.
	RuleIndex int
	// Observed is the tuple's target value.
	Observed float64
	// Predicted is the rule's (shifted) prediction f(t.X + x) + y.
	Predicted float64
	// Excess is |Observed − Predicted| − ρ, how far beyond the allowed bias
	// the tuple sits (> 0 by construction).
	Excess float64
	// Repair is the proposed target value: the tuple's first-match
	// prediction, the value RuleSet.Predict returns for it. The violated
	// rule covers the tuple, so every violation has one.
	Repair float64
}

// Violations returns every (tuple, rule) violation in rel, ordered by tuple
// then rule. Tuples with a null target or outside every condition violate
// nothing. Detection runs columnar: the relation's ColumnSet is built once
// and every rule condition narrows a selection vector with vectorized
// filters (ViolationsColumns). internal/verify holds the tuple-at-a-time
// reference it must match bitwise.
func Violations(rel *dataset.Relation, s *RuleSet) []Violation {
	return ViolationsColumns(dataset.NewColumnSetAttrs(rel, s.neededAttrs(s.YAttr)), s)
}
