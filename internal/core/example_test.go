package core_test

import (
	"context"
	"fmt"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// ExampleDiscover mines rules over a two-regime dataset: a constant plateau
// and a line, both exact, so discovery needs exactly two rules.
func ExampleDiscover() {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "X", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
	)
	rel := dataset.NewRelation(schema)
	for i := 0; i < 100; i++ {
		x := float64(i)
		y := 5.0 // plateau
		if x >= 50 {
			y = 2 * x // line
		}
		rel.MustAppend(dataset.Tuple{dataset.Num(x), dataset.Num(y)})
	}
	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs:  []int{0},
		YAttr:   1,
		RhoM:    0.5,
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		panic(err)
	}
	fmt.Println("rules:", res.Rules.NumRules())
	fmt.Println("coverage:", res.Rules.Coverage(rel))
	pred, _ := res.Rules.Predict(dataset.Tuple{dataset.Num(70), dataset.Null()})
	fmt.Printf("f(70) = %.0f\n", pred)
	// Output:
	// rules: 2
	// coverage: 1
	// f(70) = 140
}

// ExampleTranslate reproduces the paper's §IV example: the Iowa tax formula
// f5(Salary) = 0.04·Salary − 230 is a translation of f4(Salary) =
// 0.04·Salary, so the two rules merge into one with a y = −230 builtin.
func ExampleTranslate() {
	f4 := regress.NewLinear(0, 0.04)
	f5 := regress.NewLinear(-230, 0.04)
	phi4 := core.CRR{
		Model: f4, Rho: 1,
		Cond:   predicate.NewDNF(predicate.NewConjunction(predicate.StrPred(1, "TX"))),
		XAttrs: []int{0}, YAttr: 2,
	}
	phi5 := core.CRR{
		Model: f5, Rho: 1,
		Cond:   predicate.NewDNF(predicate.NewConjunction(predicate.StrPred(1, "IA"))),
		XAttrs: []int{0}, YAttr: 2,
	}
	phi3, err := core.Translate(&phi4, &phi5)
	if err != nil {
		panic(err)
	}
	fmt.Println("disjuncts:", len(phi3.Cond.Conjs))
	fmt.Println("δ for IA:", phi3.Cond.Conjs[1].Builtin.YShift)
	// Output:
	// disjuncts: 2
	// δ for IA: -230
}

// ExampleCompactCtx shows Algorithm 2 merging three rules whose models share
// a slope into a single DNF rule.
func ExampleCompactCtx() {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "X", Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Kind: dataset.Numeric},
	)
	window := func(lo, hi float64) predicate.DNF {
		return predicate.NewDNF(predicate.NewConjunction(
			predicate.NumPred(0, predicate.Ge, lo),
			predicate.NumPred(0, predicate.Lt, hi),
		))
	}
	rs := &core.RuleSet{
		Schema: schema, XAttrs: []int{0}, YAttr: 1,
		Rules: []core.CRR{
			{Model: regress.NewLinear(0, 2), Rho: 0.5, Cond: window(0, 10), XAttrs: []int{0}, YAttr: 1},
			{Model: regress.NewLinear(30, 2), Rho: 0.5, Cond: window(10, 20), XAttrs: []int{0}, YAttr: 1},
			{Model: regress.NewLinear(70, 2), Rho: 0.5, Cond: window(20, 30), XAttrs: []int{0}, YAttr: 1},
		},
	}
	compacted, stats, err := core.CompactCtx(context.Background(), rs, core.CompactOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("rules:", compacted.NumRules())
	fmt.Println("translations:", stats.Translations)
	fmt.Println("fusions:", stats.Fusions)
	// Output:
	// rules: 1
	// translations: 2
	// fusions: 2
}
