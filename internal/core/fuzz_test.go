package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
)

// FuzzReadRuleSet hardens the artifact loader against hostile input. The
// serving layer feeds it operator-supplied files and hot-reload request
// bodies, so malformed, truncated or adversarial JSON must surface as an
// error — never a panic — and anything it does accept must be safe to
// Predict with and to re-serialize.
func FuzzReadRuleSet(f *testing.F) {
	// A genuine artifact as the seed the fuzzer mutates from.
	rel := piecewiseRelation(200, 0.2, 7)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRuleSet(&buf, res.Rules); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-structure
	f.Add(`{}`)
	f.Add(`{"version":2}`)
	f.Add(`{"version":1,"schema":[{"name":"A"}],"x_attrs":[0],"y_attr":0}`)
	f.Add(`{"version":2,"schema":[{"name":"A"},{"name":"B"}],"x_attrs":[0],"y_attr":1,` +
		`"x_names":["B"],"y_name":"A","rules":[]}`)
	f.Add(`{"version":2,"schema":[{"name":"A"},{"name":"B"}],"x_attrs":[-1],"y_attr":99}`)
	f.Add(`{"version":1,"schema":[{"name":"A"},{"name":"B"}],"x_attrs":[0],"y_attr":1,` +
		`"rules":[{"model":{"family":"mlp","mlp":{"in_dim":1,"w2":[1]}},"rho":-1,` +
		`"cond":[{"preds":[{"attr":1,"op":12345,"str":"x","cat":true}],"x_shift":{"7":3}}]}]}`)

	f.Fuzz(func(t *testing.T, input string) {
		rs, err := ReadRuleSet(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Whatever was accepted must behave: predicting over an all-null and
		// an all-zero tuple of the right arity must not panic, and the set
		// must survive a write/read round trip.
		width := rs.Schema.Len()
		nulls := make(dataset.Tuple, width)
		zeros := make(dataset.Tuple, width)
		for i := 0; i < width; i++ {
			nulls[i] = dataset.Null()
			if rs.Schema.Attr(i).Kind == dataset.Categorical {
				zeros[i] = dataset.Str("")
			} else {
				zeros[i] = dataset.Num(0)
			}
		}
		rs.Predict(nulls)
		rs.Predict(zeros)
		for i := range rs.Rules {
			rs.Rules[i].Sat(zeros)
		}
		var out bytes.Buffer
		if err := WriteRuleSet(&out, rs); err != nil {
			t.Fatalf("accepted rule set failed to serialize: %v", err)
		}
		back, err := ReadRuleSet(&out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.NumRules() != rs.NumRules() || back.Schema.Len() != rs.Schema.Len() {
			t.Fatalf("round trip changed shape: %d/%d rules, %d/%d columns",
				back.NumRules(), rs.NumRules(), back.Schema.Len(), rs.Schema.Len())
		}
	})
}
