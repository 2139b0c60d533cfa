package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/impute"
)

// Data-plane handlers. Each one negotiates a request and response codec
// (JSON or binary columnar — see codec.go), decodes the body into a
// dataset.ColumnSet batch, runs the columnar classification core, and hands
// the transport-neutral result back to the response codec. The handlers
// never touch format-specific types, so every format sees identical
// semantics and the parity oracles (crrverify) can hold all of them to the
// in-process results bitwise.

// handlePredict answers POST /v1/predict: one columnar PredictView pass
// over the decoded batch, bitwise-identical to per-tuple RuleSet.Predict.
// With ?explain=1 the response carries the index of the rule that supplied
// each prediction (explain metadata), sparing clients a second /v1/rules
// correlation round trip.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) *apiError {
	art, aerr := s.artifactFor(r)
	if aerr != nil {
		return aerr
	}
	reqC, respC, aerr := s.negotiate(r)
	if aerr != nil {
		return aerr
	}
	batch, aerr := decodeBatch(r, reqC, art.rules.Schema)
	if aerr != nil {
		return aerr
	}
	if aerr := ctxExpired(r.Context()); aerr != nil {
		return aerr
	}
	res := &PredictResult{Y: art.rules.YName()}
	if wantExplain(r) {
		res.Values, res.Covered, res.RuleIDs = art.rules.PredictViewExplained(batch.Cols.View())
	} else {
		res.Values, res.Covered = art.rules.PredictView(batch.Cols.View())
	}
	return encodeResponse(w, respC, func(body io.Writer) error {
		return respC.EncodePredict(body, res)
	})
}

// handleCheck answers POST /v1/check: the integrity-constraint reading of
// the rule set (§II-A) via core.ViolationsColumns over the decoded batch,
// each violation with its row's repair (the row's first-match prediction).
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) *apiError {
	art, aerr := s.artifactFor(r)
	if aerr != nil {
		return aerr
	}
	reqC, respC, aerr := s.negotiate(r)
	if aerr != nil {
		return aerr
	}
	batch, aerr := decodeBatch(r, reqC, art.rules.Schema)
	if aerr != nil {
		return aerr
	}
	if aerr := ctxExpired(r.Context()); aerr != nil {
		return aerr
	}
	vs := core.ViolationsColumns(batch.Cols, art.rules)
	res := &CheckResult{Checked: batch.Cols.Len()}
	if len(vs) > 0 {
		res.Violations = make([]CheckViolation, len(vs))
		for i, v := range vs {
			res.Violations[i] = CheckViolation{
				Tuple:     v.TupleIndex,
				Rule:      v.RuleIndex,
				Observed:  v.Observed,
				Predicted: v.Predicted,
				Excess:    v.Excess,
				Repair:    &vs[i].Repair,
			}
		}
	}
	return encodeResponse(w, respC, func(body io.Writer) error {
		return respC.EncodeCheck(body, res)
	})
}

// handleImpute answers POST /v1/impute by wrapping internal/impute over the
// request batch: null cells of the chosen numeric column are filled from
// the rule set, and the completed tuples are returned in the negotiated
// format.
func (s *Server) handleImpute(w http.ResponseWriter, r *http.Request) *apiError {
	art, aerr := s.artifactFor(r)
	if aerr != nil {
		return aerr
	}
	reqC, respC, aerr := s.negotiate(r)
	if aerr != nil {
		return aerr
	}
	batch, aerr := decodeBatch(r, reqC, art.rules.Schema)
	if aerr != nil {
		return aerr
	}
	col := art.rules.YAttr
	if batch.Opts.Column != "" {
		var err error
		col, err = art.rules.Schema.Index(batch.Opts.Column)
		if err != nil {
			return errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		}
	}
	if aerr := ctxExpired(r.Context()); aerr != nil {
		return aerr
	}
	rel := batch.Cols.Materialize()
	p := impute.RuleSetPredictor{Rules: art.rules, UseFallback: batch.Opts.UseFallback}
	st, err := impute.Fill(rel, col, p)
	if err != nil {
		if errors.Is(err, impute.ErrColumnKind) {
			return errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		}
		return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	res := &ImputeResult{
		Column:  art.rules.Schema.Attr(col).Name,
		Imputed: st.Imputed,
		Failed:  st.Failed,
		Filled:  rel,
	}
	return encodeResponse(w, respC, func(body io.Writer) error {
		return respC.EncodeImpute(body, res)
	})
}

// encodeResponse stamps the negotiated content type and streams the result.
// Encode failures after the header is out are connection-level: nothing
// recoverable remains, so nothing is surfaced.
func encodeResponse(w http.ResponseWriter, c Codec, encode func(io.Writer) error) *apiError {
	w.Header().Set("Content-Type", c.ContentType())
	_ = encode(w)
	return nil
}

// ruleSetInfo is the GET /v1/rules summary.
type ruleSetInfo struct {
	Source       string    `json:"source"`
	LoadedAt     time.Time `json:"loaded_at"`
	X            []string  `json:"x"`
	Y            string    `json:"y"`
	CondAttrs    []string  `json:"cond_attrs"`
	Rules        int       `json:"rules"`
	Models       int       `json:"models"`
	Conjunctions int       `json:"conjunctions"`
	MinRho       float64   `json:"min_rho"`
	MaxRho       float64   `json:"max_rho"`
	Fallback     float64   `json:"fallback"`
	Formatted    []string  `json:"formatted"`
}

// handleRules answers GET /v1/rules with the addressed tenant's artifact
// summary.
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) *apiError {
	art, aerr := s.artifactFor(r)
	if aerr != nil {
		return aerr
	}
	rs := art.rules
	info := ruleSetInfo{
		Source:       art.source,
		LoadedAt:     art.loadedAt,
		X:            rs.XNames(),
		Y:            rs.YName(),
		CondAttrs:    []string{},
		Rules:        art.summary.Rules,
		Models:       art.summary.Models,
		Conjunctions: art.summary.Conjunctions,
		MinRho:       art.summary.MinRho,
		MaxRho:       art.summary.MaxRho,
		Fallback:     rs.Fallback,
	}
	for _, a := range rs.CondAttrs() {
		info.CondAttrs = append(info.CondAttrs, rs.Schema.Attr(a).Name)
	}
	for i := range rs.Rules {
		info.Formatted = append(info.Formatted, rs.Rules[i].Format(rs.Schema))
	}
	return writeJSON(w, info)
}

// handleReload answers POST /v1/reload: an empty body re-reads the
// configured artifact path (DefaultTenant only — the path feeds exactly one
// tenant); a non-empty body is parsed as a complete artifact and swapped in
// for the addressed tenant directly (zero-downtime push deploys).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) *apiError {
	tenant := tenantOf(r)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "read body: %v", err)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		if tenant != DefaultTenant {
			return errf(http.StatusBadRequest, CodeInvalidArgument,
				"path-based reload feeds only the default tenant; push an artifact body for %q", tenant)
		}
		if err := s.Reload(); err != nil {
			return errf(http.StatusUnprocessableEntity, CodeReloadFailed, "%v", err)
		}
	} else {
		if err := s.ReloadTenantFrom(tenant, bytes.NewReader(body), "reload-body"); err != nil {
			return errf(http.StatusUnprocessableEntity, CodeReloadFailed, "%v", err)
		}
	}
	art, aerr := s.artifactFor(r)
	if aerr != nil {
		return aerr
	}
	return writeJSON(w, struct {
		Tenant     string    `json:"tenant"`
		Rules      int       `json:"rules"`
		Source     string    `json:"source"`
		LoadedAt   time.Time `json:"loaded_at"`
		Generation uint64    `json:"generation"`
	}{tenant, art.rules.NumRules(), art.source, art.loadedAt, art.gen})
}

// handleHealthz answers GET /healthz. It stays outside the in-flight gate,
// so probes keep passing while the data plane sheds load. The cluster
// liveness tracker reads status ("ok" | "draining") and generation; the
// top-level rules/loaded_at/generation triple describes the DefaultTenant
// when present (single-tenant compatibility), and tenants maps every loaded
// tenant to its generation.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) *apiError {
	tenants := map[string]uint64{}
	for _, name := range s.Tenants() {
		tenants[name] = s.TenantGeneration(name)
	}
	if len(tenants) == 0 {
		return errf(http.StatusServiceUnavailable, CodeUnavailable, "no rule set loaded")
	}
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	out := struct {
		Status     string            `json:"status"`
		Rules      int               `json:"rules"`
		LoadedAt   time.Time         `json:"loaded_at"`
		Generation uint64            `json:"generation"`
		Tenants    map[string]uint64 `json:"tenants"`
	}{Status: status, Tenants: tenants}
	if art := s.artifactNow(); art != nil {
		out.Rules = art.rules.NumRules()
		out.LoadedAt = art.loadedAt
		out.Generation = art.gen
	}
	return writeJSON(w, out)
}

// handleMetrics answers GET /metrics with the Prometheus text exposition of
// the shared telemetry registry — the same snapshot the CLIs render.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) *apiError {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.Snapshot().WriteText(w); err != nil {
		return nil // connection-level failure; nothing to send anymore
	}
	return nil
}
