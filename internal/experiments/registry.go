package experiments

import (
	"context"
	"fmt"
	"sort"
)

// Experiment couples an experiment id with its runner and the paper artifact
// it regenerates. Runners honor context cancellation between method fits and
// inside every discovery they launch.
type Experiment struct {
	ID       string
	Artifact string // the table/figure in the paper
	Run      func(ctx context.Context, scale float64) ([]Row, error)
}

// Registry returns every experiment keyed by id, in a stable order.
func Registry() []Experiment {
	return []Experiment{
		{"fig2", "Figure 2: scalability vs baselines, AirQuality", Fig2AirQuality},
		{"fig3", "Figure 3: scalability vs baselines, Electricity", Fig3Electricity},
		{"fig4", "Figure 4: scalability vs baselines, Tax", Fig4Tax},
		{"fig5", "Figure 5: instance scalability CRR vs RR, BirdMap", Fig5InstanceScalability},
		{"fig6", "Figure 6: predicate scalability, BirdMap", Fig6PredicateScalability},
		{"fig7", "Figure 7: column scalability, AirQuality", Fig7ColumnScalability},
		{"fig8", "Figure 8: bias parameter study, BirdMap+Abalone", Fig8BiasSensitivity},
		{"tab3", "Table III: predicate generators", Table3PredicateGenerators},
		{"tab4", "Table IV: conjunction ordering", Table4ConjunctionOrdering},
		{"fig9", "Figure 9: rule compaction on regression trees", Fig9RuleCompaction},
		{"fig10", "Figure 10: imputation with/without compaction", Fig10Imputation},
		{"ablation-sharing", "Ablation: model sharing on/off", AblationSharing},
		{"ablation-delta0", "Ablation: δ0 midpoint vs least-squares δ", AblationDelta0},
		{"ablation-fuse", "Ablation: eager shared-rule fusion on/off", AblationFuse},
		{"ablation-prune", "Ablation: §VII post-pruning of over-refined rules", AblationPrune},
		{"extra-birdmap", "Tech-report extra: Fig.2-style comparison on BirdMap", ExtraBirdMap},
		{"extra-abalone", "Tech-report extra: Fig.4-style comparison on Abalone", ExtraAbalone},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0)
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}
