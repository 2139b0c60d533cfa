package core

import (
	"fmt"
	"strings"

	"github.com/crrlab/crr/internal/predicate"
)

// Explanation reports how a rule set treats one tuple: every covering rule
// with the conjunction that matched, the builtins it applied, the prediction
// and the margin to ρ. It is the debugging surface behind crrcheck and rule
// inspection; ExplainView computes it for every row of a batch.
type Explanation struct {
	// Covered reports whether any rule's condition matched.
	Covered bool
	// Prediction is the rule set's prediction (first covering rule) or the
	// fallback when uncovered.
	Prediction float64
	// Matches lists every covering rule in rule order; Matches[0] is the one
	// Predict used.
	Matches []MatchInfo
}

// MatchInfo is one covering rule's view of the tuple.
type MatchInfo struct {
	RuleIndex int
	ConjIndex int
	// Builtin holds the applied shifts (x = Δ, y = δ).
	Builtin predicate.Builtin
	// Prediction is f(t.X + Δ) + δ for this rule.
	Prediction float64
	// Deviation is |t.Y − Prediction|; NaN when the target is null.
	Deviation float64
	// Satisfied reports Deviation ≤ ρ (true when the target is null).
	Satisfied bool
}

// Format renders the explanation for human consumption.
func (e Explanation) Format(s *RuleSet) string {
	var b strings.Builder
	if !e.Covered {
		fmt.Fprintf(&b, "uncovered; fallback prediction %.6g\n", e.Prediction)
		return b.String()
	}
	fmt.Fprintf(&b, "prediction %.6g via rule %d\n", e.Prediction, e.Matches[0].RuleIndex+1)
	for _, m := range e.Matches {
		rule := &s.Rules[m.RuleIndex]
		status := "satisfied"
		if !m.Satisfied {
			status = fmt.Sprintf("VIOLATED (deviation %.4g > ρ %.4g)", m.Deviation, rule.Rho)
		}
		shift := m.Builtin.String()
		if shift == "" {
			shift = "x=0,y=0"
		}
		fmt.Fprintf(&b, "  rule %d conj %d [%s]: f→%.6g, %s\n",
			m.RuleIndex+1, m.ConjIndex+1, shift, m.Prediction, status)
	}
	return b.String()
}
