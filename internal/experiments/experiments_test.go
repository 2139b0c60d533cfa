package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// testScale shrinks the paper's sizes so the whole suite stays fast; shape
// assertions below hold at this scale and at 1.0.
const testScale = 0.1

// rowsBy indexes rows by method name prefix.
func rowsBy(rows []Row, methodPrefix string) []Row {
	var out []Row
	for _, r := range rows {
		if strings.HasPrefix(r.Method, methodPrefix) {
			out = append(out, r)
		}
	}
	return out
}

func TestRegistryCoversEveryArtifact(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Artifact == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	// Every evaluation artifact of the paper must be present.
	for _, want := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tab3", "tab4"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig2"); err != nil {
		t.Errorf("Lookup(fig2): %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup accepted an unknown id")
	}
}

func TestFig2Shapes(t *testing.T) {
	rows, err := Fig2AirQuality(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*9 {
		t.Fatalf("rows = %d, want 36 (4 sizes × 9 methods)", len(rows))
	}
	// At the largest size, CRR uses fewer rules than the rule-per-partition
	// baselines and lands at competitive RMSE vs RegTree.
	last := rows[len(rows)-9:]
	var crr, tree, forest Row
	for _, r := range last {
		switch r.Method {
		case "CRR":
			crr = r
		case "RegTree":
			tree = r
		case "Forest":
			forest = r
		}
	}
	if crr.Rules >= tree.Rules || crr.Rules >= forest.Rules {
		t.Errorf("CRR rules %d not below RegTree %d / Forest %d", crr.Rules, tree.Rules, forest.Rules)
	}
	if crr.RMSE > 2*tree.RMSE+1 {
		t.Errorf("CRR RMSE %v far above RegTree %v", crr.RMSE, tree.RMSE)
	}
}

func TestFig4TaxShapes(t *testing.T) {
	rows, err := Fig4Tax(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	// CRR must dominate on the relational dataset: the state-conditional
	// formulas are exactly CRR's hypothesis class.
	for _, size := range []float64{rows[0].Value, rows[len(rows)-1].Value} {
		var crr, samp Row
		for _, r := range rows {
			if r.Value != size {
				continue
			}
			switch r.Method {
			case "CRR":
				crr = r
			case "SampLR":
				samp = r
			}
		}
		if crr.RMSE >= samp.RMSE {
			t.Errorf("size %v: CRR RMSE %v not below SampLR %v", size, crr.RMSE, samp.RMSE)
		}
	}
}

func TestFig5CRRBeatsRR(t *testing.T) {
	rows, err := Fig5InstanceScalability(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5's core claim: conditions beat a single unconditioned model.
	// Compare per family at the largest size.
	lastValue := rows[len(rows)-1].Value
	for _, fam := range []string{"F1", "F3"} {
		var crr, rr Row
		for _, r := range rows {
			if r.Value != lastValue {
				continue
			}
			if r.Method == "CRR-"+fam {
				crr = r
			}
			if r.Method == "RR-"+fam {
				rr = r
			}
		}
		if crr.RMSE >= rr.RMSE {
			t.Errorf("%s: CRR RMSE %v not below RR %v", fam, crr.RMSE, rr.RMSE)
		}
	}
}

func TestFig6MorePredicatesLowerRMSE(t *testing.T) {
	rows, err := Fig6PredicateScalability(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	f1 := rowsBy(rows, "CRR-F1")
	if len(f1) < 3 {
		t.Fatalf("F1 rows = %d", len(f1))
	}
	first, last := f1[0], f1[len(f1)-1]
	if last.RMSE >= first.RMSE {
		t.Errorf("RMSE did not improve with predicates: %v → %v", first.RMSE, last.RMSE)
	}
}

func TestFig8UShapeEndpointsWorse(t *testing.T) {
	rows, err := Fig8BiasSensitivity(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's observation: very large ρ_M hurts (sloppy models accepted).
	abalone := make(map[float64]Row)
	for _, r := range rows {
		if r.Dataset == "Abalone" {
			abalone[r.Value] = r
		}
	}
	if abalone[5].RMSE <= abalone[0.5].RMSE {
		t.Errorf("ρ_M=5 RMSE %v not above ρ_M=0.5 RMSE %v", abalone[5].RMSE, abalone[0.5].RMSE)
	}
}

func TestTable3AllGeneratorsCoverAndFit(t *testing.T) {
	rows, err := Table3PredicateGenerators(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 datasets × 3 generators)", len(rows))
	}
	for _, r := range rows {
		if r.Rules == 0 {
			t.Errorf("%s/%s produced no rules", r.Dataset, r.Method)
		}
	}
}

func TestTable4AllOrdersAgreeOnQuality(t *testing.T) {
	rows, err := Table4ConjunctionOrdering(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Ordering affects time, not validity: every order must land near the
	// same RMSE per dataset (within a generous factor).
	byDS := map[string][]Row{}
	for _, r := range rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	for ds, rs := range byDS {
		lo, hi := rs[0].RMSE, rs[0].RMSE
		for _, r := range rs {
			if r.RMSE < lo {
				lo = r.RMSE
			}
			if r.RMSE > hi {
				hi = r.RMSE
			}
		}
		if hi > 3*lo+0.5 {
			t.Errorf("%s: ordering changed RMSE too much: [%v, %v]", ds, lo, hi)
		}
	}
}

func TestFig9CompactionReducesLinearTrees(t *testing.T) {
	rows, err := Fig9RuleCompaction(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Method] = r
	}
	for _, ds := range []string{"BirdMap", "Abalone"} {
		for _, fam := range []string{"F1", "F2"} { // F3 cannot translate (MLP)
			tree := byKey[ds+"/RegTree-"+fam]
			comp := byKey[ds+"/RegTree+Compact-"+fam]
			if comp.Rules > tree.Rules {
				t.Errorf("%s/%s: compaction grew rules %d → %d", ds, fam, tree.Rules, comp.Rules)
			}
			if tree.Rules > 8 && comp.Rules >= tree.Rules {
				t.Errorf("%s/%s: compaction did not reduce a %d-leaf tree", ds, fam, tree.Rules)
			}
		}
	}
}

func TestFig10CompactionKeepsRMSE(t *testing.T) {
	rows, err := Fig10Imputation(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Method] = r
	}
	for _, ds := range []string{"BirdMap", "Abalone"} {
		for _, fam := range []string{"F1", "F2", "F3"} {
			tree := byKey[ds+"/RegTree-"+fam]
			comp := byKey[ds+"/RegTree+Compact-"+fam]
			if comp.Rules > tree.Rules {
				t.Errorf("%s/%s: compacted rules %d > tree rules %d", ds, fam, comp.Rules, tree.Rules)
			}
			// "The imputation RMSE is somewhat comparable": allow drift from
			// tolerant translation but not collapse.
			if comp.RMSE > 3*tree.RMSE+1 {
				t.Errorf("%s/%s: compaction destroyed imputation RMSE: %v vs %v", ds, fam, comp.RMSE, tree.RMSE)
			}
		}
	}
}

func TestAblationSharingTrainsFewerModels(t *testing.T) {
	spec := ElectricitySpec()
	rel := spec.Gen(4000)
	on := crrFor(spec)
	if err := on.Fit(rel, spec.XAttrs, spec.YAttr); err != nil {
		t.Fatal(err)
	}
	off := crrFor(spec)
	off.DisableSharing = true
	if err := off.Fit(rel, spec.XAttrs, spec.YAttr); err != nil {
		t.Fatal(err)
	}
	if off.Stats().ShareHits != 0 {
		t.Error("sharing-off still shared")
	}
	if on.Stats().ShareHits == 0 {
		t.Error("sharing-on never shared on a recurring-regime dataset")
	}
	if on.Stats().ModelsTrained > off.Stats().ModelsTrained {
		t.Errorf("sharing increased trained models: %d vs %d",
			on.Stats().ModelsTrained, off.Stats().ModelsTrained)
	}
}

func TestAblationDelta0MidpointAtLeastLS(t *testing.T) {
	rows, err := AblationDelta0(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	byDS := map[string]map[string]int{}
	for _, r := range rows {
		if byDS[r.Dataset] == nil {
			byDS[r.Dataset] = map[string]int{}
		}
		byDS[r.Dataset][r.Method] = r.Rules
	}
	for ds, m := range byDS {
		if m["midpoint-δ0"] < m["least-squares-δ"] {
			t.Errorf("%s: midpoint accepts %d < LS accepts %d — contradicts Proposition 6 optimality",
				ds, m["midpoint-δ0"], m["least-squares-δ"])
		}
	}
}

func TestCRRMethodAccessors(t *testing.T) {
	spec := AbaloneSpec()
	rel := spec.Gen(600)
	m := crrFor(spec)
	if m.Name() != "CRR" {
		t.Errorf("Name = %s", m.Name())
	}
	if _, ok := m.Predict(rel.Tuples[0]); ok {
		t.Error("Predict before Fit succeeded")
	}
	if m.NumRules() != 0 {
		t.Error("NumRules before Fit")
	}
	if err := m.Fit(rel, spec.XAttrs, spec.YAttr); err != nil {
		t.Fatal(err)
	}
	if m.NumRules() == 0 || m.Rules() == nil {
		t.Error("no rules after Fit")
	}
	if _, ok := m.Predict(rel.Tuples[0]); !ok {
		t.Error("Predict after Fit failed on a training tuple")
	}
}

func TestRRMethod(t *testing.T) {
	spec := AbaloneSpec()
	rel := spec.Gen(600)
	m := &RRMethod{}
	if err := m.Fit(rel, spec.XAttrs, spec.YAttr); err != nil {
		t.Fatal(err)
	}
	if m.Name() != "RR" || m.NumRules() != 1 {
		t.Errorf("Name/NumRules = %s/%d", m.Name(), m.NumRules())
	}
	if _, ok := m.Predict(rel.Tuples[0]); !ok {
		t.Error("RR Predict failed")
	}
}

func TestSplitInterleaved(t *testing.T) {
	spec := AbaloneSpec()
	rel := spec.Gen(100)
	train, test := splitInterleaved(rel, 5)
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split = %d/%d, want 80/20", train.Len(), test.Len())
	}
}

func TestRenderRows(t *testing.T) {
	rows := []Row{{Experiment: "x", Dataset: "D", Method: "M", Param: "size", Value: 10, RMSE: 0.5, Rules: 3}}
	var buf bytes.Buffer
	if err := RenderRows(&buf, "Title", rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Title", "D", "M", "0.5", "3"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestScaledHelper(t *testing.T) {
	if scaled(1000, 0.5, 10) != 500 {
		t.Error("scaled(1000, 0.5) != 500")
	}
	if scaled(1000, 0.001, 100) != 100 {
		t.Error("scaled floor not applied")
	}
	if scaled(1000, 0, 10) != 1000 {
		t.Error("scale 0 should mean full size")
	}
	if scaled(1000, 7, 10) != 1000 {
		t.Error("scale > 1 should clamp to full size")
	}
}

func TestFig3ElectricityShapes(t *testing.T) {
	rows, err := Fig3Electricity(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*9 {
		t.Fatalf("rows = %d, want 36", len(rows))
	}
	// CRR compresses the few daily regimes into very few rules at every size.
	for _, r := range rows {
		if r.Method == "CRR" && r.Rules > 10 {
			t.Errorf("size %v: CRR rules = %d, want few", r.Value, r.Rules)
		}
	}
}

func TestFig7ColumnShapes(t *testing.T) {
	rows, err := Fig7ColumnScalability(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Learning time grows with the number of target columns.
	if rows[len(rows)-1].Learn <= rows[0].Learn {
		t.Errorf("total learn time did not grow: %v → %v", rows[0].Learn, rows[len(rows)-1].Learn)
	}
}

func TestAblationRegistryRunsAll(t *testing.T) {
	for _, id := range []string{"ablation-sharing", "ablation-fuse", "ablation-prune"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := e.Run(context.Background(), testScale)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestWriteRowsCSV(t *testing.T) {
	rows := []Row{{Experiment: "x", Dataset: "D", Method: "M", Param: "size", Value: 10, RMSE: 0.5, Rules: 3}}
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "experiment,dataset,method") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "x,D,M,size,10,0,0,0.5,3,0,0,0") {
		t.Errorf("row not rendered: %q", out)
	}
}

func TestDefaultCondAttrs(t *testing.T) {
	spec := TaxSpec()
	rel := spec.Gen(50)
	got := defaultCondAttrs(rel.Schema, []int{0}, 4)
	// Salary (x) plus every categorical column (State, MaritalStatus, City),
	// never Tax (y=4).
	want := map[int]bool{0: true, 1: true, 2: true, 12: true}
	if len(got) != len(want) {
		t.Fatalf("cond attrs = %v", got)
	}
	for _, a := range got {
		if !want[a] {
			t.Errorf("unexpected cond attr %d", a)
		}
	}
}

func TestExtraExperiments(t *testing.T) {
	for _, id := range []string{"extra-birdmap", "extra-abalone"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := e.Run(context.Background(), testScale)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// CRR stays the fewest-rules conditional method at the largest size.
		last := rows[len(rows)-1].Value
		var crr, tree Row
		for _, r := range rows {
			if r.Value != last {
				continue
			}
			switch r.Method {
			case "CRR":
				crr = r
			case "RegTree":
				tree = r
			}
		}
		if crr.Rules == 0 || tree.Rules == 0 {
			t.Fatalf("%s: missing methods in rows", id)
		}
		if crr.Rules > tree.Rules {
			t.Errorf("%s: CRR rules %d above RegTree %d", id, crr.Rules, tree.Rules)
		}
	}
}
