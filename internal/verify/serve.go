package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/serve"
	"github.com/crrlab/crr/pkg/client"
)

// Served-endpoint parity: the HTTP data plane must classify exactly like the
// in-process rule set, over EVERY negotiated format. Tuples cross the wire
// as name-keyed JSON objects and as binary columnar frames (through the
// public SDK); predictions come back as JSON numbers and float64 lanes.
// Go's JSON encoder emits the shortest round-tripping representation for
// finite float64s and the binary format carries the exact bits, so parity
// is checked bitwise on all paths.

// singleProbes bounds how many leading tuples are additionally checked
// through the single-tuple request shape (one HTTP round trip each); the
// batch shape covers the whole relation in one request.
const singleProbes = 32

// predictResponse mirrors the /v1/predict wire shape.
type predictResponse struct {
	Y           string `json:"y"`
	Count       int    `json:"count"`
	Predictions []struct {
		Value   float64 `json:"value"`
		Covered bool    `json:"covered"`
	} `json:"predictions"`
}

// checkResponse mirrors the /v1/check wire shape.
type checkResponse struct {
	Checked    int `json:"checked"`
	Violations []struct {
		Tuple     int      `json:"tuple"`
		Rule      int      `json:"rule"`
		Observed  float64  `json:"observed"`
		Predicted float64  `json:"predicted"`
		Excess    float64  `json:"excess"`
		Repair    *float64 `json:"repair,omitempty"`
	} `json:"violations"`
}

// serveOracles spins up the serving stack on the given rule set and checks
// /v1/predict (single and batch shapes) and /v1/check against the in-process
// results on every tuple of the target relation.
func (rn *runner) serveOracles(t Target, rules *core.RuleSet, label string) error {
	srv, err := serve.NewFromRuleSet(serve.Config{}, rules, "verify")
	if err != nil {
		return fmt.Errorf("serve %s: %w", label, err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rel := t.Rel
	wire := make([]map[string]any, len(rel.Tuples))
	for i, tp := range rel.Tuples {
		wire[i] = wireTuple(rel.Schema, tp)
	}

	// Batch predict: one request covering the whole relation.
	var pr predictResponse
	if err := postJSON(ts.URL+"/v1/predict", map[string]any{"tuples": wire}, &pr); err != nil {
		return fmt.Errorf("serve %s predict: %w", label, err)
	}
	detail := ""
	if pr.Count != len(wire) || len(pr.Predictions) != len(wire) {
		detail = fmt.Sprintf("served %d predictions for %d tuples", len(pr.Predictions), len(wire))
	} else if pr.Y != rules.YName() {
		detail = fmt.Sprintf("served target %q, rule set targets %q", pr.Y, rules.YName())
	} else {
		for i, tp := range rel.Tuples {
			want, wcov := rules.Predict(tp)
			got := pr.Predictions[i]
			if got.Covered != wcov || !bitsEqual(got.Value, want) {
				detail = fmt.Sprintf("row %d: served (%g,%v) vs in-process (%g,%v)",
					i, got.Value, got.Covered, want, wcov)
				break
			}
		}
	}
	rn.check("serve/predict-batch/"+label, detail)

	// Single predict: per-tuple request shape on the leading rows.
	detail = ""
	for i := 0; i < len(wire) && i < singleProbes; i++ {
		var sr predictResponse
		if err := postJSON(ts.URL+"/v1/predict", map[string]any{"tuple": wire[i]}, &sr); err != nil {
			return fmt.Errorf("serve %s predict single: %w", label, err)
		}
		want, wcov := rules.Predict(rel.Tuples[i])
		if len(sr.Predictions) != 1 {
			detail = fmt.Sprintf("row %d: %d predictions for a single-tuple request", i, len(sr.Predictions))
			break
		}
		if got := sr.Predictions[0]; got.Covered != wcov || !bitsEqual(got.Value, want) {
			detail = fmt.Sprintf("row %d: served (%g,%v) vs in-process (%g,%v)",
				i, got.Value, got.Covered, want, wcov)
			break
		}
	}
	rn.check("serve/predict-single/"+label, detail)

	// Check: served violations vs core.Violations, repairs vs Predict.
	var cr checkResponse
	if err := postJSON(ts.URL+"/v1/check", map[string]any{"tuples": wire}, &cr); err != nil {
		return fmt.Errorf("serve %s check: %w", label, err)
	}
	rn.check("serve/check/"+label, diffServedViolations(rel, rules, &cr))

	// Binary columnar path through the public SDK: the same batch, answered
	// bitwise-identically to the in-process classifier — and therefore to
	// the JSON path just verified.
	if err := rn.serveBinaryOracles(ts.URL, t, rules, label); err != nil {
		return err
	}
	return nil
}

// serveBinaryOracles drives /v1/predict and /v1/check through pkg/client in
// binary columnar format and holds the answers to the in-process results.
func (rn *runner) serveBinaryOracles(url string, t Target, rules *core.RuleSet, label string) error {
	rel := t.Rel
	batch, err := cliutil.ClientBatch(rel)
	if err != nil {
		return fmt.Errorf("serve %s binary batch: %w", label, err)
	}
	c := client.New(url, client.WithFormat(client.FormatBinary))
	res, err := c.Predict(context.Background(), batch, client.WithExplain())
	if err != nil {
		return fmt.Errorf("serve %s binary predict: %w", label, err)
	}
	detail := ""
	if len(res.Values) != len(rel.Tuples) {
		detail = fmt.Sprintf("served %d predictions for %d tuples", len(res.Values), len(rel.Tuples))
	} else {
		for i, tp := range rel.Tuples {
			want, wcov := rules.Predict(tp)
			if res.Covered[i] != wcov || !bitsEqual(res.Values[i], want) {
				detail = fmt.Sprintf("row %d: binary (%g,%v) vs in-process (%g,%v)",
					i, res.Values[i], res.Covered[i], want, wcov)
				break
			}
			if !res.Covered[i] && res.RuleIDs[i] != -1 {
				detail = fmt.Sprintf("row %d: uncovered but rule id %d", i, res.RuleIDs[i])
				break
			}
		}
	}
	rn.check("serve/predict-binary/"+label, detail)

	batch, err = cliutil.ClientBatch(rel)
	if err != nil {
		return fmt.Errorf("serve %s binary batch: %w", label, err)
	}
	rep, err := c.Check(context.Background(), batch)
	if err != nil {
		return fmt.Errorf("serve %s binary check: %w", label, err)
	}
	detail = ""
	want := core.Violations(rel, rules)
	if rep.Checked != len(rel.Tuples) || len(rep.Violations) != len(want) {
		detail = fmt.Sprintf("binary check %d/%d vs in-process %d/%d",
			rep.Checked, len(rep.Violations), len(rel.Tuples), len(want))
	} else {
		for i, got := range rep.Violations {
			w := want[i]
			if got.Tuple != w.TupleIndex || got.Rule != w.RuleIndex ||
				!bitsEqual(got.Observed, w.Observed) || !bitsEqual(got.Predicted, w.Predicted) ||
				!bitsEqual(got.Excess, w.Excess) || got.Repair == nil || !bitsEqual(*got.Repair, w.Repair) {
				detail = fmt.Sprintf("violation %d: binary %+v vs in-process %+v", i, got, w)
				break
			}
		}
	}
	rn.check("serve/check-binary/"+label, detail)
	return nil
}

func diffServedViolations(rel *dataset.Relation, rules *core.RuleSet, cr *checkResponse) string {
	want := core.Violations(rel, rules)
	if cr.Checked != len(rel.Tuples) {
		return fmt.Sprintf("checked %d of %d tuples", cr.Checked, len(rel.Tuples))
	}
	if len(cr.Violations) != len(want) {
		return fmt.Sprintf("violation count %d vs %d", len(cr.Violations), len(want))
	}
	for i, got := range cr.Violations {
		w := want[i]
		if got.Tuple != w.TupleIndex || got.Rule != w.RuleIndex ||
			!bitsEqual(got.Observed, w.Observed) || !bitsEqual(got.Predicted, w.Predicted) ||
			!bitsEqual(got.Excess, w.Excess) {
			return fmt.Sprintf("violation %d: served %+v vs in-process %+v", i, got, w)
		}
		repair, rok := rules.Predict(rel.Tuples[w.TupleIndex])
		switch {
		case rok && got.Repair == nil:
			return fmt.Sprintf("violation %d: repair %g missing from response", i, repair)
		case !rok && got.Repair != nil:
			return fmt.Sprintf("violation %d: unexpected repair %g", i, *got.Repair)
		case rok && !bitsEqual(*got.Repair, repair):
			return fmt.Sprintf("violation %d: repair %g vs %g", i, *got.Repair, repair)
		}
	}
	return ""
}

// wireTuple encodes a tuple into the serving wire form: name-keyed values,
// null cells omitted (the handler treats absent keys as missing).
func wireTuple(schema *dataset.Schema, tp dataset.Tuple) map[string]any {
	obj := make(map[string]any, len(tp))
	for i := range tp {
		if tp[i].Null {
			continue
		}
		a := schema.Attr(i)
		if a.Kind == dataset.Categorical {
			obj[a.Name] = tp[i].Str
		} else {
			obj[a.Name] = tp[i].Num
		}
	}
	return obj
}

func postJSON(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 1024))
		return fmt.Errorf("%s: %s: %s", url, r.Status, msg)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}
