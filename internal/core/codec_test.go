package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

func TestRuleSetCodecRoundTrip(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 3)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	rules, _ := compactExact(t, res.Rules)

	var buf bytes.Buffer
	if err := WriteRuleSet(&buf, rules); err != nil {
		t.Fatalf("WriteRuleSet: %v", err)
	}
	back, err := ReadRuleSet(&buf)
	if err != nil {
		t.Fatalf("ReadRuleSet: %v", err)
	}
	if back.NumRules() != rules.NumRules() {
		t.Fatalf("rules %d, want %d", back.NumRules(), rules.NumRules())
	}
	if back.YAttr != rules.YAttr || back.Fallback != rules.Fallback {
		t.Error("metadata changed in round trip")
	}
	if back.Schema.Len() != rules.Schema.Len() {
		t.Fatal("schema width changed")
	}
	// Predictions identical tuple-by-tuple, including builtin application.
	for _, tp := range rel.Tuples {
		p1, ok1 := rules.Predict(tp)
		p2, ok2 := back.Predict(tp)
		if ok1 != ok2 || absDiff(p1, p2) > 1e-12 {
			t.Fatalf("round trip changed prediction: %v/%v vs %v/%v", p1, ok1, p2, ok2)
		}
	}
}

func TestRuleSetCodecWithBuiltinsAndCategorical(t *testing.T) {
	conj := predicate.NewConjunction(
		predicate.NumPred(0, predicate.Ge, 5),
		predicate.StrPred(2, "Maria"),
	)
	conj.Builtin = conj.Builtin.WithXShift(0, 365).WithYShift(-2)
	rs := &RuleSet{
		Schema:   lineSchema(),
		XAttrs:   []int{0},
		YAttr:    1,
		Fallback: 9,
		Rules: []CRR{{
			Model: regress.NewLinear(1, 2), Rho: 0.25,
			Cond:   predicate.NewDNF(conj),
			XAttrs: []int{0}, YAttr: 1,
		}},
	}
	var buf bytes.Buffer
	if err := WriteRuleSet(&buf, rs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRuleSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := back.Rules[0].Cond.Conjs[0]
	if c.Builtin.Shift(0) != 365 || c.Builtin.YShift != -2 {
		t.Errorf("builtin lost: %v", c.Builtin)
	}
	if len(c.Preds) != 2 || !c.Preds[1].Categorical || c.Preds[1].Str != "Maria" {
		t.Errorf("predicates lost: %v", c.Preds)
	}
	// The shifted application survives: f(x+365)−2 at x=10 is 1+2·375−2.
	pred, ok := back.Predict(lineTuple(10, 0, "Maria"))
	if !ok || pred != 1+2*375-2 {
		t.Errorf("Predict = %v, %v", pred, ok)
	}
}

func TestReadRuleSetRejectsBadInput(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version":99}`,
		`{"version":1,"schema":[{"name":"A"}],"x_attrs":[5],"y_attr":0}`,
		`{"version":1,"schema":[{"name":"A"}],"x_attrs":[0],"y_attr":7}`,
		`{"version":1,"schema":[{"name":"A"},{"name":"B"}],"x_attrs":[0],"y_attr":1,
		  "rules":[{"model":{"family":"linear","linear":{"weights":[1,2,3]}},"rho":1,"cond":[]}]}`, // width 2 model for 1 xattr
	}
	for i, c := range cases {
		if _, err := ReadRuleSet(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestReadRuleSetLegacyV1: version-1 files predate the named schema
// metadata and must load unchanged.
func TestReadRuleSetLegacyV1(t *testing.T) {
	legacy := `{"version":1,
	  "schema":[{"name":"X"},{"name":"Y"},{"name":"Who","categorical":true}],
	  "x_attrs":[0],"y_attr":1,"fallback":4,
	  "rules":[{"model":{"family":"linear","linear":{"weights":[1,2]}},"rho":0.5,
	    "cond":[{"preds":[{"attr":0,"op":3,"num":0}]}]}]}`
	rs, err := ReadRuleSet(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy v1 rejected: %v", err)
	}
	if rs.NumRules() != 1 || rs.YName() != "Y" || rs.XNames()[0] != "X" {
		t.Errorf("legacy load lost structure: %d rules, y=%q x=%v",
			rs.NumRules(), rs.YName(), rs.XNames())
	}
	if got := rs.CondAttrs(); len(got) != 1 || got[0] != 0 {
		t.Errorf("CondAttrs = %v, want [0]", got)
	}
}

// TestRuleSetCodecNameMetadata: version-2 files carry x_names/y_name/
// cond_attrs, they survive a round trip, and inconsistent metadata is
// rejected rather than silently trusted.
func TestRuleSetCodecNameMetadata(t *testing.T) {
	rel := piecewiseRelation(400, 0.2, 3)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRuleSet(&buf, res.Rules); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if !strings.Contains(raw, `"version": 2`) || !strings.Contains(raw, `"y_name"`) ||
		!strings.Contains(raw, `"x_names"`) {
		t.Fatalf("v2 artifact lacks name metadata:\n%.300s", raw)
	}
	back, err := ReadRuleSet(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if back.YName() != res.Rules.YName() {
		t.Errorf("y name changed: %q vs %q", back.YName(), res.Rules.YName())
	}

	bad := []string{
		strings.Replace(raw, `"y_name"`, `"y_name_x"`, 1),                      // unknown field is fine...
		strings.Replace(raw, `"version": 2`, `"version": 3`, 1),                // future version
		strings.Replace(raw, `"op": `, `"op": 9`, 1),                           // hostile operator (prefixes a digit)
		strings.Replace(raw, `"cond_attrs": [`, `"cond_attrs": ["nosuch",`, 1), // unknown cond attr
	}
	// Case 0 drops y_name entirely (renamed key is simply ignored by the
	// decoder), which is legal; the rest must error.
	if _, err := ReadRuleSet(strings.NewReader(bad[0])); err != nil {
		t.Errorf("missing y_name must stay legal, got %v", err)
	}
	for i, c := range bad[1:] {
		if _, err := ReadRuleSet(strings.NewReader(c)); err == nil {
			t.Errorf("bad case %d accepted", i+1)
		}
	}

	// Swapped metadata: declare a y_name that names a different column.
	other := rel.Schema.Attr(0).Name
	if other == res.Rules.YName() {
		t.Fatalf("test setup: attr 0 is the target")
	}
	swapped := strings.Replace(raw,
		`"y_name": "`+res.Rules.YName()+`"`, `"y_name": "`+other+`"`, 1)
	if _, err := ReadRuleSet(strings.NewReader(swapped)); err == nil {
		t.Error("mismatched y_name accepted")
	}
}

func TestRuleSetCodecEmpty(t *testing.T) {
	rs := &RuleSet{Schema: lineSchema(), XAttrs: []int{0}, YAttr: 1, Fallback: 3}
	var buf bytes.Buffer
	if err := WriteRuleSet(&buf, rs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRuleSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRules() != 0 || back.Fallback != 3 {
		t.Error("empty rule set round trip failed")
	}
}

// Property: WriteRuleSet → ReadRuleSet is prediction-preserving for random
// rule sets with mixed window shapes and builtins.
func TestRuleSetCodecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRuleSet(rng)
		var buf bytes.Buffer
		if err := WriteRuleSet(&buf, rs); err != nil {
			return false
		}
		back, err := ReadRuleSet(&buf)
		if err != nil {
			return false
		}
		for trial := 0; trial < 100; trial++ {
			tp := lineTuple(float64(rng.Intn(30)-15)+rng.Float64(), 0,
				[]string{"a", "b"}[rng.Intn(2)])
			p1, ok1 := rs.Predict(tp)
			p2, ok2 := back.Predict(tp)
			if ok1 != ok2 || p1 != p2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
