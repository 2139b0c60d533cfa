// Command crrcheck uses conditional regression rules as integrity
// constraints: it checks a CSV against a saved rule set (crrdiscover -save)
// and reports every violating tuple, optionally with a repair suggestion.
//
// Usage:
//
//	crrdiscover -input clean.csv -y Tax -x Salary -compact -save rules.json
//	crrcheck    -input suspect.csv -rules rules.json -repair
//
// With -remote the rules stay on a crrserve instance and the check runs
// over HTTP through the Go SDK (binary columnar protocol, JSON fallback):
//
//	crrcheck -input suspect.csv -remote http://localhost:8080 -repair
//
// Exit status is 1 when violations are found, 2 on errors — usable as a
// data-quality gate in pipelines.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/pkg/client"
)

func main() {
	var (
		input   = flag.String("input", "", "CSV to check (required)")
		rulesIn = flag.String("rules", "", "saved rule set JSON (required unless -remote)")
		remote  = flag.String("remote", "", "check against a crrserve URL instead of a local rule file")
		repair  = flag.Bool("repair", false, "print a repaired value per violation")
		explain = flag.Bool("explain", false, "print the full rule-by-rule explanation per violation")
		limit   = flag.Int("limit", 20, "maximum violations to print (0 = all)")
	)
	flag.Parse()
	var violations int
	var err error
	if *remote != "" {
		violations, err = runRemote(*input, *remote, *repair, *limit, *explain)
	} else {
		violations, err = run(*input, *rulesIn, *repair, *limit, *explain)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crrcheck:", err)
		os.Exit(2)
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// runRemote checks the CSV against a served rule set through the SDK.
func runRemote(input, remote string, repair bool, limit int, explain bool) (int, error) {
	if input == "" {
		return 0, fmt.Errorf("-input is required (see -h)")
	}
	if explain {
		return 0, fmt.Errorf("-explain needs the local rule set; it is not available with -remote")
	}
	f, err := os.Open(input)
	if err != nil {
		return 0, err
	}
	rel, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return 0, err
	}
	batch, err := cliutil.ClientBatch(rel)
	if err != nil {
		return 0, err
	}
	c := client.New(remote)
	info, err := c.Rules(context.Background())
	if err != nil {
		return 0, err
	}
	rep, err := c.Check(context.Background(), batch)
	if err != nil {
		return 0, err
	}
	fmt.Printf("checked %d tuples against %d rules: %d violation(s)\n",
		rep.Checked, info.Rules, len(rep.Violations))
	for i, v := range rep.Violations {
		if limit > 0 && i >= limit {
			fmt.Printf("... and %d more\n", len(rep.Violations)-limit)
			break
		}
		fmt.Printf("row %d: %s=%.6g but rule %d predicts %.6g (excess %.4g beyond ρ)",
			v.Tuple+1, info.Y, v.Observed, v.Rule+1, v.Predicted, v.Excess)
		if repair && v.Repair != nil {
			fmt.Printf("  → repair: %.6g", *v.Repair)
		}
		fmt.Println()
	}
	return len(rep.Violations), nil
}

func run(input, rulesIn string, repair bool, limit int, explain bool) (int, error) {
	if input == "" || rulesIn == "" {
		return 0, fmt.Errorf("-input and -rules are required (see -h)")
	}
	f, err := os.Open(input)
	if err != nil {
		return 0, err
	}
	rel, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return 0, err
	}
	rf, err := os.Open(rulesIn)
	if err != nil {
		return 0, err
	}
	rules, err := core.ReadRuleSet(rf)
	rf.Close()
	if err != nil {
		return 0, err
	}
	if rel.Schema.Len() != rules.Schema.Len() {
		return 0, fmt.Errorf("schema mismatch: data has %d columns, rules expect %d",
			rel.Schema.Len(), rules.Schema.Len())
	}

	// One columnar mirror serves detection, repair suggestions and the
	// per-violation explanations.
	cs := dataset.NewColumnSet(rel)
	vs := core.ViolationsColumns(cs, rules)
	fmt.Printf("checked %d tuples against %d rules: %d violation(s)\n",
		rel.Len(), rules.NumRules(), len(vs))
	yName := rules.Schema.Attr(rules.YAttr).Name
	shown := len(vs)
	if limit > 0 && limit < shown {
		shown = limit
	}
	var explanations []core.Explanation
	if explain && shown > 0 {
		sel := make([]int, 0, shown)
		for _, v := range vs[:shown] {
			if len(sel) == 0 || sel[len(sel)-1] != v.TupleIndex {
				sel = append(sel, v.TupleIndex)
			}
		}
		explanations = core.ExplainView(&dataset.View{Cols: cs, Sel: sel}, rules)
		byRow := make(map[int]core.Explanation, len(sel))
		for i, r := range sel {
			byRow[r] = explanations[i]
		}
		explanations = explanations[:0]
		for _, v := range vs[:shown] {
			explanations = append(explanations, byRow[v.TupleIndex])
		}
	}
	for i, v := range vs {
		if limit > 0 && i >= limit {
			fmt.Printf("... and %d more\n", len(vs)-limit)
			break
		}
		fmt.Printf("row %d: %s=%.6g but rule %d predicts %.6g (excess %.4g beyond ρ)",
			v.TupleIndex+1, yName, v.Observed, v.RuleIndex+1, v.Predicted, v.Excess)
		if repair {
			fmt.Printf("  → repair: %.6g", v.Repair)
		}
		fmt.Println()
		if explain {
			fmt.Print(explanations[i].Format(rules))
		}
	}
	return len(vs), nil
}
