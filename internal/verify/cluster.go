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
	"github.com/crrlab/crr/internal/cluster"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/router"
	"github.com/crrlab/crr/internal/serve"
	"github.com/crrlab/crr/internal/telemetry"
	"github.com/crrlab/crr/pkg/client"
)

// Cluster parity: the stateless router must be a bitwise passthrough. A
// request answered through the router has to produce the exact bytes the
// owning node produces when asked directly, and the decoded predictions have
// to match the in-process classifier bitwise — for both addressing forms
// (X-CRR-Tenant header and /t/{tenant}/ path) and both codecs (JSON and
// binary columnar through the public SDK).

// clusterTenant is the non-default tenant the cluster oracles install on
// every node alongside the default artifact.
const clusterTenant = "verify-b"

// clusterOracles stands up a two-node tenant-aware fleet behind a router and
// checks router-path /v1/predict and /v1/check against direct-node bytes and
// in-process results for both tenants.
func (rn *runner) clusterOracles(t Target, rules *core.RuleSet, label string) error {
	reg := telemetry.New()
	specs := make([]cluster.NodeSpec, 2)
	for i := range specs {
		srv, err := serve.NewFromRuleSet(serve.Config{}, rules, "verify")
		if err != nil {
			return fmt.Errorf("cluster %s node %d: %w", label, i, err)
		}
		if _, err := srv.InstallTenant(clusterTenant, rules, "verify"); err != nil {
			return fmt.Errorf("cluster %s node %d tenant: %w", label, i, err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		specs[i] = cluster.NodeSpec{Name: fmt.Sprintf("n%d", i+1), URL: ts.URL}
	}
	tracker, err := cluster.NewTracker(specs, cluster.TrackerConfig{Registry: reg})
	if err != nil {
		return fmt.Errorf("cluster %s tracker: %w", label, err)
	}
	rtr, err := router.New(router.Config{Tracker: tracker, Registry: reg})
	if err != nil {
		return fmt.Errorf("cluster %s router: %w", label, err)
	}
	front := httptest.NewServer(rtr.Handler())
	defer front.Close()

	rel := t.Rel
	wire := make([]map[string]any, len(rel.Tuples))
	for i, tp := range rel.Tuples {
		wire[i] = wireTuple(rel.Schema, tp)
	}
	reqBody, err := json.Marshal(map[string]any{"tuples": wire})
	if err != nil {
		return err
	}

	for _, tenant := range []string{serve.DefaultTenant, clusterTenant} {
		cands := tracker.Route(tenant)
		if len(cands) == 0 {
			return fmt.Errorf("cluster %s: no candidates for tenant %s", label, tenant)
		}
		primary := cands[0].URL

		// Predict: router bytes == direct-node bytes == /t/ path-form bytes.
		direct, err := postTenantRaw(primary+"/v1/predict", tenant, reqBody)
		if err != nil {
			return fmt.Errorf("cluster %s direct predict: %w", label, err)
		}
		routed, err := postTenantRaw(front.URL+"/v1/predict", tenant, reqBody)
		if err != nil {
			return fmt.Errorf("cluster %s routed predict: %w", label, err)
		}
		pathed, err := postTenantRaw(front.URL+"/t/"+tenant+"/v1/predict", "", reqBody)
		if err != nil {
			return fmt.Errorf("cluster %s path-form predict: %w", label, err)
		}
		detail := ""
		if !bytes.Equal(routed, direct) {
			detail = fmt.Sprintf("tenant %s: router body (%d bytes) differs from direct node (%d bytes)",
				tenant, len(routed), len(direct))
		} else if !bytes.Equal(pathed, routed) {
			detail = fmt.Sprintf("tenant %s: /t/ path form (%d bytes) differs from header form (%d bytes)",
				tenant, len(pathed), len(routed))
		}
		rn.check("cluster/predict-passthrough/"+label, detail)

		// Router-path predictions vs the in-process classifier, bitwise.
		var pr predictResponse
		if err := json.Unmarshal(routed, &pr); err != nil {
			return fmt.Errorf("cluster %s decode predict: %w", label, err)
		}
		detail = ""
		if pr.Count != len(wire) || len(pr.Predictions) != len(wire) {
			detail = fmt.Sprintf("tenant %s: routed %d predictions for %d tuples",
				tenant, len(pr.Predictions), len(wire))
		} else {
			for i, tp := range rel.Tuples {
				want, wcov := rules.Predict(tp)
				got := pr.Predictions[i]
				if got.Covered != wcov || !bitsEqual(got.Value, want) {
					detail = fmt.Sprintf("tenant %s row %d: routed (%g,%v) vs in-process (%g,%v)",
						tenant, i, got.Value, got.Covered, want, wcov)
					break
				}
			}
		}
		rn.check("cluster/predict-router/"+label, detail)

		// Check: same passthrough + semantic comparison.
		directC, err := postTenantRaw(primary+"/v1/check", tenant, reqBody)
		if err != nil {
			return fmt.Errorf("cluster %s direct check: %w", label, err)
		}
		routedC, err := postTenantRaw(front.URL+"/v1/check", tenant, reqBody)
		if err != nil {
			return fmt.Errorf("cluster %s routed check: %w", label, err)
		}
		detail = ""
		if !bytes.Equal(routedC, directC) {
			detail = fmt.Sprintf("tenant %s: router check body (%d bytes) differs from direct node (%d bytes)",
				tenant, len(routedC), len(directC))
		}
		rn.check("cluster/check-passthrough/"+label, detail)

		var cr checkResponse
		if err := json.Unmarshal(routedC, &cr); err != nil {
			return fmt.Errorf("cluster %s decode check: %w", label, err)
		}
		rn.check("cluster/check-router/"+label, diffServedViolations(rel, rules, &cr))

		// Binary columnar through the SDK, addressed at the router.
		if err := rn.clusterBinaryOracle(front.URL, t, rules, tenant, label); err != nil {
			return err
		}
	}
	return nil
}

// clusterBinaryOracle drives the router with the SDK in binary columnar
// format and holds the answers to the in-process classifier bitwise.
func (rn *runner) clusterBinaryOracle(url string, t Target, rules *core.RuleSet, tenant, label string) error {
	rel := t.Rel
	batch, err := cliutil.ClientBatch(rel)
	if err != nil {
		return fmt.Errorf("cluster %s binary batch: %w", label, err)
	}
	c := client.New(url, client.WithFormat(client.FormatBinary), client.WithTenant(tenant))
	res, err := c.Predict(context.Background(), batch)
	if err != nil {
		return fmt.Errorf("cluster %s binary predict: %w", label, err)
	}
	detail := ""
	if len(res.Values) != len(rel.Tuples) {
		detail = fmt.Sprintf("tenant %s: routed %d binary predictions for %d tuples",
			tenant, len(res.Values), len(rel.Tuples))
	} else {
		for i, tp := range rel.Tuples {
			want, wcov := rules.Predict(tp)
			if res.Covered[i] != wcov || !bitsEqual(res.Values[i], want) {
				detail = fmt.Sprintf("tenant %s row %d: routed binary (%g,%v) vs in-process (%g,%v)",
					tenant, i, res.Values[i], res.Covered[i], want, wcov)
				break
			}
		}
	}
	rn.check("cluster/predict-binary/"+label, detail)

	batch, err = cliutil.ClientBatch(rel)
	if err != nil {
		return fmt.Errorf("cluster %s binary batch: %w", label, err)
	}
	rep, err := c.Check(context.Background(), batch)
	if err != nil {
		return fmt.Errorf("cluster %s binary check: %w", label, err)
	}
	detail = ""
	want := core.Violations(rel, rules)
	if rep.Checked != len(rel.Tuples) || len(rep.Violations) != len(want) {
		detail = fmt.Sprintf("tenant %s: routed binary check %d/%d vs in-process %d/%d",
			tenant, rep.Checked, len(rep.Violations), len(rel.Tuples), len(want))
	} else {
		for i, got := range rep.Violations {
			w := want[i]
			if got.Tuple != w.TupleIndex || got.Rule != w.RuleIndex ||
				!bitsEqual(got.Observed, w.Observed) || !bitsEqual(got.Predicted, w.Predicted) ||
				!bitsEqual(got.Excess, w.Excess) || got.Repair == nil || !bitsEqual(*got.Repair, w.Repair) {
				detail = fmt.Sprintf("tenant %s violation %d: routed binary %+v vs in-process %+v",
					tenant, i, got, w)
				break
			}
		}
	}
	rn.check("cluster/check-binary/"+label, detail)
	return nil
}

// postTenantRaw posts a JSON body, optionally stamped with the tenant
// header, and returns the raw response bytes for byte-level comparison.
func postTenantRaw(url, tenant string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, raw)
	}
	return raw, nil
}
