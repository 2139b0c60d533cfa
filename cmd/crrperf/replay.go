package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/serve"
	"github.com/crrlab/crr/internal/wire"
	"github.com/crrlab/crr/pkg/client"
)

// exchange is one request a client sent and the answer it got, byte for
// byte.
type exchange struct {
	req        *http.Request // method, URL and headers; the body is in body
	body, resp []byte
}

// capture is an http.RoundTripper that keeps the last exchange it carried.
type capture struct {
	base http.RoundTripper
	last exchange
}

func (c *capture) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	out.ContentLength = int64(len(body))
	resp, err := c.base.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.last = exchange{req: out, body: body, resp: rb}
	resp.Body = io.NopCloser(bytes.NewReader(rb))
	return resp, nil
}

// serveLocal answers ex's request with h in this process, with no network
// in between, and returns the response body.
func serveLocal(h http.Handler, ex exchange) ([]byte, error) {
	req := httptest.NewRequest(ex.req.Method, ex.req.URL.RequestURI(), bytes.NewReader(ex.body))
	req.Header = ex.req.Header.Clone()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s %s: HTTP %d: %s", ex.req.Method, ex.req.URL.Path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// probe is one binary predict (and, optionally, one check) of a batch as a
// remote server answered it, with an in-process serve.Server holding the
// same artifact to replay the exchanges against.
type probe struct {
	predict, check exchange // check.req is nil when no check was sent
	local          http.Handler
	rules          *core.RuleSet // the artifact parsed apart from the local server's copy
	cs             *dataset.ColumnSet
}

// newProbe sends batch, whose rows cs holds, once as a binary predict and,
// with check set, once as a check to url, addressed to tenant (none when
// empty). The artifact is parsed twice: one copy serves in an in-process
// serve.Server (which attaches its telemetry to the rule set it installs),
// the other is called directly. The answers must match the artifact in
// process: the predictions bit for bit with PredictView, and every answer
// byte for byte with the in-process server's answer to the same request
// bytes.
func (r *run) newProbe(url, tenant string, batch *client.Batch, cs *dataset.ColumnSet, artifact []byte, check bool) (*probe, error) {
	served, err := core.ReadRuleSet(bytes.NewReader(artifact))
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewFromRuleSet(serve.Config{}, served, "crrperf")
	if err != nil {
		return nil, err
	}
	opts := []client.Option{client.WithFormat(client.FormatBinary)}
	if tenant != "" {
		if _, err := srv.InstallTenant(tenant, served, "crrperf"); err != nil {
			return nil, err
		}
		opts = append(opts, client.WithTenant(tenant))
	}
	rules, err := core.ReadRuleSet(bytes.NewReader(artifact))
	if err != nil {
		return nil, err
	}
	capt := &capture{base: http.DefaultTransport}
	c := client.New(url, append(opts, client.WithHTTPClient(&http.Client{Transport: capt}))...)
	p := &probe{local: srv.Handler(), rules: rules, cs: cs}

	r.res.Attempted++
	pred, err := c.Predict(r.ctx, batch)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	p.predict = capt.last
	vals, cov := rules.PredictView(cs.View())
	if err := (wantPreds{vals, cov}).matches(pred); err != nil {
		return nil, fmt.Errorf("predict differs from the artifact in process: %w", err)
	}
	if err := p.sameAsLocal(p.predict); err != nil {
		return nil, err
	}
	if check {
		r.res.Attempted++
		if _, err := c.Check(r.ctx, batch); err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
		p.check = capt.last
		if err := p.sameAsLocal(p.check); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sameAsLocal holds a remote answer to the in-process server's answer to
// the same request.
func (p *probe) sameAsLocal(ex exchange) error {
	local, err := serveLocal(p.local, ex)
	if err != nil {
		return err
	}
	if !bytes.Equal(local, ex.resp) {
		return fmt.Errorf("%s answer (%d bytes) differs from the in-process server's (%d bytes)", ex.req.URL.Path, len(ex.resp), len(local))
	}
	return nil
}

// replay times, n times each, the library calls a predict and a check of
// the probe's batch go through, on the exact bytes that went over the wire:
// the client's wire encode and decode, the wire decode a server starts
// with, the whole handler of the in-process server, and the classification
// calls on the batch's rows.
func (r *run) replay(n int, p *probe) error {
	r.phase("replays", float64(n))
	wb, err := wire.DecodeBatch(bytes.NewReader(p.predict.body), wire.DecodeLimits{})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	preds, err := wire.DecodePredictions(bytes.NewReader(p.predict.resp), wire.DecodeLimits{})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var rep *wire.CheckReport
	if p.check.req != nil {
		if rep, err = wire.DecodeCheck(bytes.NewReader(p.check.resp), wire.DecodeLimits{}); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	var buf bytes.Buffer
	timed := func(name string, fn func() error) {
		if err != nil {
			return
		}
		buf.Reset()
		r.observe(name+"_ms", "ms", ms(r.tr.do(0, name, func(int64) { err = fn() })))
	}
	for i := 0; i < n && err == nil; i++ {
		timed("wire.encode_batch", func() error { return wire.EncodeBatch(&buf, wb, wire.EncodeOptions{}) })
		timed("wire.decode_batch", func() error {
			_, err := wire.DecodeBatch(bytes.NewReader(p.predict.body), wire.DecodeLimits{})
			return err
		})
		timed("serve.local_predict", func() error {
			_, err := serveLocal(p.local, p.predict)
			return err
		})
		timed("core.predict_view", func() error {
			p.rules.PredictView(p.cs.View())
			return nil
		})
		timed("wire.encode_predictions", func() error { return wire.EncodePredictions(&buf, preds) })
		timed("wire.decode_predictions", func() error {
			_, err := wire.DecodePredictions(bytes.NewReader(p.predict.resp), wire.DecodeLimits{})
			return err
		})
		timed("core.violations", func() error {
			core.ViolationsColumns(p.cs, p.rules)
			return nil
		})
		if p.check.req != nil {
			timed("serve.local_check", func() error {
				_, err := serveLocal(p.local, p.check)
				return err
			})
			timed("wire.encode_check", func() error { return wire.EncodeCheck(&buf, rep) })
		}
	}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}
