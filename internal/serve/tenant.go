package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/registry"
)

// Multi-tenant serving. A Server holds one independently swappable artifact
// per tenant; the pre-tenant API (New, Reload, /v1/predict without a
// tenant) operates on the DefaultTenant, so single-tenant deployments keep
// working unchanged. Requests address a tenant through the X-CRR-Tenant
// header or a /t/{tenant}/... path prefix (rewritten to the header form by
// the root handler, so the router can forward bodies untouched either way).
//
// When Config.Store is set, the server is also the control plane of a
// registry-backed deployment: /v1/registry/publish|activate|rollback|list
// mutate the durable store and hot-swap the affected tenant's artifact in
// the same call.

// DefaultTenant is the tenant key behind the pre-tenant API surface.
const DefaultTenant = "default"

// TenantHeader addresses a tenant on any endpoint.
const TenantHeader = "X-CRR-Tenant"

// tenantState is one tenant's independently swappable artifact slot. The
// generation counter is tenant-scoped, so install accounting for one tenant
// is undisturbed by publishes to another.
type tenantState struct {
	art    atomic.Pointer[artifact]
	genCtr atomic.Uint64
}

// tenantState returns the named tenant's slot, creating it when create is
// set.
func (s *Server) tenantState(name string, create bool) *tenantState {
	s.tmu.RLock()
	ts := s.tenants[name]
	s.tmu.RUnlock()
	if ts != nil || !create {
		return ts
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if ts = s.tenants[name]; ts == nil {
		ts = &tenantState{}
		s.tenants[name] = ts
	}
	return ts
}

// Tenants lists the tenants with a loaded artifact, sorted.
func (s *Server) Tenants() []string {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	names := make([]string, 0, len(s.tenants))
	for name, ts := range s.tenants {
		if ts.art.Load() != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// tenantOf resolves the tenant a request addresses: the X-CRR-Tenant header
// when present (the /t/{tenant} path prefix is rewritten into it by the root
// handler), DefaultTenant otherwise.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// artifactFor resolves the addressed tenant's current artifact.
func (s *Server) artifactFor(r *http.Request) (*artifact, *apiError) {
	name := tenantOf(r)
	ts := s.tenantState(name, false)
	if ts == nil {
		return nil, errf(http.StatusNotFound, CodeUnknownTenant, "unknown tenant %q", name)
	}
	art := ts.art.Load()
	if art == nil {
		return nil, errf(http.StatusNotFound, CodeUnknownTenant, "tenant %q has no artifact", name)
	}
	return art, nil
}

// rootHandler rewrites /t/{tenant}/rest into rest + X-CRR-Tenant before mux
// dispatch, so both addressing forms share one route table and forwarded
// bodies are never touched.
func (s *Server) rootHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rest, ok := strings.CutPrefix(r.URL.Path, "/t/"); ok {
			tenant, sub, found := strings.Cut(rest, "/")
			if !found || tenant == "" {
				writeError(w, http.StatusNotFound, CodeUnknownTenant,
					"tenant path form is /t/{tenant}/v1/..., got %q", r.URL.Path)
				return
			}
			r.Header.Set(TenantHeader, tenant)
			r.URL.Path = "/" + sub
		}
		s.mux.ServeHTTP(w, r)
	})
}

// InstallTenant swaps rules in as tenant's served artifact unconditionally,
// serialized with reloads, and returns the tenant's new generation. This is
// the in-process counterpart of POST /v1/reload for embedders that already
// hold a rule set.
func (s *Server) InstallTenant(tenant string, rules *core.RuleSet, source string) (uint64, error) {
	if rules == nil || rules.Schema == nil {
		return 0, errors.New("serve: rule set must carry a schema (payloads are validated by attribute name)")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.ctrReloads.Inc()
	return s.install(tenant, rules, source), nil
}

// TenantGeneration returns tenant's current artifact generation (0 when the
// tenant has no artifact).
func (s *Server) TenantGeneration(tenant string) uint64 {
	if ts := s.tenantState(tenant, false); ts != nil {
		if a := ts.art.Load(); a != nil {
			return a.gen
		}
	}
	return 0
}

// LoadStore installs the active artifact of every tenant in the configured
// registry store — the boot path of a registry-backed node.
func (s *Server) LoadStore() error {
	if s.store == nil {
		return errors.New("serve: no registry store configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	for _, tenant := range s.store.Tenants() {
		rules, vi, err := s.store.RuleSet(tenant, 0)
		if err != nil {
			return err
		}
		s.install(tenant, rules, registrySource(tenant, vi))
	}
	return nil
}

func registrySource(tenant string, vi registry.VersionInfo) string {
	return fmt.Sprintf("registry:%s@v%d", tenant, vi.Version)
}

// registryErr maps registry failures onto the error envelope.
func registryErr(err error) *apiError {
	switch {
	case errors.Is(err, registry.ErrUnknownTenant):
		return errf(http.StatusNotFound, CodeUnknownTenant, "%v", err)
	case errors.Is(err, registry.ErrUnknownVersion):
		return errf(http.StatusNotFound, CodeUnknownVersion, "%v", err)
	default:
		return errf(http.StatusUnprocessableEntity, CodeRegistryRejected, "%v", err)
	}
}

// requireStore gates the registry control plane.
func (s *Server) requireStore() *apiError {
	if s.store == nil {
		return errf(http.StatusServiceUnavailable, CodeUnavailable,
			"no artifact registry configured (start with -registry)")
	}
	return nil
}

// registryMutation summarizes a successful publish/activate/rollback.
type registryMutation struct {
	Tenant     string `json:"tenant"`
	Version    uint64 `json:"version"`
	Rules      int    `json:"rules"`
	Blob       string `json:"blob"`
	Generation uint64 `json:"generation"`
}

// handleRegistryPublish answers POST /v1/registry/publish: the body is a
// complete rule-set artifact, published as the addressed tenant's next
// version, activated, and hot-swapped into serving — the durable form of
// the push-deploy /v1/reload path.
func (s *Server) handleRegistryPublish(w http.ResponseWriter, r *http.Request) *apiError {
	if aerr := s.requireStore(); aerr != nil {
		return aerr
	}
	tenant := tenantOf(r)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "read body: %v", err)
	}
	source := r.URL.Query().Get("source")
	if source == "" {
		source = "publish"
	}
	vi, err := s.store.Publish(tenant, bytes.NewReader(body), source)
	if err != nil {
		return registryErr(err)
	}
	rules, err := core.ReadRuleSet(bytes.NewReader(body))
	if err != nil {
		// The store validated the same bytes; a parse failure here is a bug.
		return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	gen, err := s.InstallTenant(tenant, rules, registrySource(tenant, vi))
	if err != nil {
		return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	return writeJSON(w, registryMutation{
		Tenant: tenant, Version: vi.Version, Rules: vi.Rules, Blob: vi.Blob, Generation: gen,
	})
}

// activateRequest is the POST /v1/registry/{activate,rollback} body.
type activateRequest struct {
	Tenant string `json:"tenant"`
	// Version is the target version; for rollback, 0 means "the version
	// before the active one".
	Version uint64 `json:"version"`
}

func decodeActivate(r *http.Request) (activateRequest, *apiError) {
	var req activateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, errf(http.StatusBadRequest, CodeInvalidArgument, "decode request: %v", err)
	}
	if req.Tenant == "" {
		req.Tenant = tenantOfHeaderOnly(r)
	}
	return req, nil
}

// tenantOfHeaderOnly is tenantOf for control endpoints whose body may also
// carry the tenant: header wins only when the body left it empty.
func tenantOfHeaderOnly(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// activateVersion moves tenant's active pointer (via move) and hot-swaps the
// resulting artifact — shared by activate and rollback.
func (s *Server) activateVersion(w http.ResponseWriter, tenant string,
	move func() (registry.VersionInfo, error)) *apiError {
	vi, err := move()
	if err != nil {
		return registryErr(err)
	}
	rules, vi2, err := s.store.RuleSet(tenant, vi.Version)
	if err != nil {
		return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	gen, err := s.InstallTenant(tenant, rules, registrySource(tenant, vi2))
	if err != nil {
		return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	return writeJSON(w, registryMutation{
		Tenant: tenant, Version: vi2.Version, Rules: vi2.Rules, Blob: vi2.Blob, Generation: gen,
	})
}

// handleRegistryActivate answers POST /v1/registry/activate {tenant,version}:
// move the active pointer to any retained version and serve it.
func (s *Server) handleRegistryActivate(w http.ResponseWriter, r *http.Request) *apiError {
	if aerr := s.requireStore(); aerr != nil {
		return aerr
	}
	req, aerr := decodeActivate(r)
	if aerr != nil {
		return aerr
	}
	if req.Version == 0 {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "activate needs an explicit version")
	}
	return s.activateVersion(w, req.Tenant, func() (registry.VersionInfo, error) {
		return s.store.Activate(req.Tenant, req.Version)
	})
}

// handleRegistryRollback answers POST /v1/registry/rollback {tenant[,version]}:
// version 0 rolls back to the newest version older than the active one. The
// restored artifact serves the exact bytes that were published.
func (s *Server) handleRegistryRollback(w http.ResponseWriter, r *http.Request) *apiError {
	if aerr := s.requireStore(); aerr != nil {
		return aerr
	}
	req, aerr := decodeActivate(r)
	if aerr != nil {
		return aerr
	}
	return s.activateVersion(w, req.Tenant, func() (registry.VersionInfo, error) {
		return s.store.Rollback(req.Tenant, req.Version)
	})
}

// handleRegistryList answers GET /v1/registry/list with the manifest view
// plus each tenant's live serving generation.
func (s *Server) handleRegistryList(w http.ResponseWriter, _ *http.Request) *apiError {
	if aerr := s.requireStore(); aerr != nil {
		return aerr
	}
	type tenantRow struct {
		registry.TenantInfo
		Generation uint64 `json:"generation"`
	}
	out := map[string]tenantRow{}
	for name, ti := range s.store.List() {
		out[name] = tenantRow{TenantInfo: ti, Generation: s.TenantGeneration(name)}
	}
	return writeJSON(w, struct {
		Tenants map[string]tenantRow `json:"tenants"`
	}{out})
}
