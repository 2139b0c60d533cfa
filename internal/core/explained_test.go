package core_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/verify"
)

// TestPredictViewExplainedParity: the explain variant must return exactly
// the PredictView predictions (bitwise) plus, per covered row, the index of
// the first rule verify.ExplainRow reports as matching — and -1 for
// fallback rows.
// This is the contract /v1/predict?explain=1 exposes over the wire.
func TestPredictViewExplainedParity(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			train := spec.Gen(500)
			rules := discoverRules(t, spec, train)
			check := checkedRelation(spec, 400, rng)
			view := dataset.NewColumnSet(check).View()

			plainP, plainC := rules.PredictView(view)
			preds, covered, ruleIDs := rules.PredictViewExplained(view)
			if len(ruleIDs) != check.Len() {
				t.Fatalf("ruleIDs len %d, want %d", len(ruleIDs), check.Len())
			}
			for i, tp := range check.Tuples {
				if math.Float64bits(preds[i]) != math.Float64bits(plainP[i]) || covered[i] != plainC[i] {
					t.Fatalf("tuple %d: explained (%v,%v) diverges from plain (%v,%v)",
						i, preds[i], covered[i], plainP[i], plainC[i])
				}
				ex := verify.ExplainRow(rules, tp)
				if !covered[i] {
					if ruleIDs[i] != -1 {
						t.Fatalf("tuple %d: uncovered but rule id %d", i, ruleIDs[i])
					}
					continue
				}
				if len(ex.Matches) == 0 {
					t.Fatalf("tuple %d: covered but ExplainRow found no match", i)
				}
				if want := ex.Matches[0].RuleIndex; ruleIDs[i] != want {
					t.Fatalf("tuple %d: rule id %d, want %d", i, ruleIDs[i], want)
				}
				if math.Float64bits(preds[i]) != math.Float64bits(ex.Matches[0].Prediction) {
					t.Fatalf("tuple %d: prediction %v, want ExplainRow's %v", i, preds[i], ex.Matches[0].Prediction)
				}
			}
		})
	}
}
