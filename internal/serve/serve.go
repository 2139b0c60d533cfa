// Package serve is the rule-serving subsystem: an HTTP server that loads a
// discovered rule-set artifact (crrdiscover -save) and exposes prediction,
// constraint checking and imputation over the network, so consumers no
// longer re-load the JSON in-process.
//
// Endpoints:
//
//	POST /v1/predict  predictions for one tuple or a batch (RuleSet.Predict)
//	POST /v1/check    per-tuple violation verdicts against ρ (core.Violations)
//	POST /v1/impute   fill null cells of a numeric column (internal/impute)
//	GET  /v1/rules    rule-set summary and formatted rules
//	POST /v1/reload   hot-swap the artifact from disk or the request body
//	GET  /healthz     liveness + drain status + per-tenant generations
//	GET  /metrics     Prometheus text exposition of the telemetry registry
//
// Registry control plane (only when Config.Store is set — see tenant.go):
//
//	POST /v1/registry/publish   publish body as the tenant's next version
//	POST /v1/registry/activate  activate a retained version
//	POST /v1/registry/rollback  roll the active pointer back
//	GET  /v1/registry/list      manifest view + live generations
//
// The server is multi-tenant: every endpoint addresses a tenant via the
// X-CRR-Tenant header or a /t/{tenant}/... path prefix, and each tenant has
// an independently hot-swappable artifact. Requests that name no tenant hit
// DefaultTenant, which is where the pre-tenant single-artifact API (New,
// Reload, Generation) lives — single-tenant deployments are unchanged.
//
// Production behaviors are part of the contract, not extras: every data-plane
// request runs under a per-request context deadline; a configurable in-flight
// semaphore sheds excess load with 429 instead of queueing unboundedly;
// Shutdown drains in-flight requests; and reload swaps the rule set through
// an atomic pointer, so concurrent Predict calls always observe either the
// old or the new artifact, never a torn one. Tuples arrive as JSON objects
// keyed by attribute NAME and are validated against the artifact's schema —
// field order is never trusted.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/registry"
	"github.com/crrlab/crr/internal/telemetry"
)

// Config parameterizes a Server. The zero value of every optional field is
// replaced by the default documented on it.
type Config struct {
	// RulesPath is the rule-set artifact to load and the source of
	// path-based reloads (POST /v1/reload with an empty body, SIGHUP). It
	// feeds the DefaultTenant. Optional when the initial set is injected via
	// NewFromRuleSet or loaded from Store.
	RulesPath string

	// Store, when set, attaches a versioned artifact registry: the
	// /v1/registry control plane is enabled, and New installs every
	// tenant's active version at boot (LoadStore).
	Store *registry.Registry

	// MaxInFlight bounds concurrently handled data-plane requests
	// (predict/check/impute). Requests beyond the bound are rejected
	// immediately with 429. Default 64.
	MaxInFlight int

	// RequestTimeout is the per-request processing deadline; work past it is
	// abandoned and answered with 504. Default 30s.
	RequestTimeout time.Duration

	// MaxBodyBytes bounds request bodies (tuple batches, reload payloads).
	// Default 32 MiB.
	MaxBodyBytes int64

	// Registry receives the serving metrics and the rule set's prediction-
	// index counters; GET /metrics exposes it. Default: a fresh registry.
	Registry *telemetry.Registry

	// Logf, when set, receives one line per lifecycle event (load, reload,
	// shutdown). Default: silent.
	Logf func(format string, args ...any)

	// OnRequest, when set, is called synchronously with the endpoint name
	// after a data-plane request is admitted (past the in-flight gate) and
	// before its handler runs — an audit/instrumentation shim, and the hook
	// lifecycle tests use to hold requests in flight deterministically.
	OnRequest func(endpoint string)
}

// artifact is one immutable loaded rule set plus its provenance. Handlers
// grab the current artifact exactly once per request, so a concurrent reload
// never changes the schema mid-request.
type artifact struct {
	rules    *core.RuleSet
	summary  core.Summary
	source   string
	loadedAt time.Time
	// gen is the artifact's generation: a tenant-scoped counter incremented
	// by every successful install, the token InstallIfGeneration compares
	// against so two writers (an operator reload and a stream maintainer)
	// cannot silently overwrite each other's swap.
	gen uint64
}

// Server is the HTTP rule-serving subsystem. Create with New or
// NewFromRuleSet, expose via Handler or Serve, stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *telemetry.Registry
	store *registry.Registry

	// tenants maps tenant name → artifact slot. Slots are created on first
	// install and never removed; swapping happens inside the slot, so the
	// map itself is read-mostly.
	tmu      sync.RWMutex
	tenants  map[string]*tenantState
	reloadMu sync.Mutex // serializes installs/reloads; the swap itself is atomic

	// draining flips when StartDrain is called: /healthz reports "draining"
	// so routers stop assigning new tenants here while in-flight and
	// follow-up reads on existing connections still complete.
	draining atomic.Bool

	inflight    chan struct{}
	inflightNow atomic.Int64

	mux  *http.ServeMux
	root http.Handler
	http *http.Server

	// Pre-resolved metric handles (hot path: one atomic op per event).
	gaugeInFlight *telemetry.Gauge
	ctrShed       *telemetry.Counter
	ctrTimeout    *telemetry.Counter
	ctrReloads    *telemetry.Counter
	ctrReloadErrs *telemetry.Counter
}

// endpoint bundles the per-endpoint metric handles.
type endpoint struct {
	name     string
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

// New builds a server and loads the initial artifacts: the DefaultTenant
// artifact from cfg.RulesPath (when set) and every registry tenant's active
// version from cfg.Store (when set). At least one source is required.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.RulesPath == "" && cfg.Store == nil {
		return nil, errors.New("serve: Config.RulesPath or Config.Store is required")
	}
	if cfg.RulesPath != "" {
		if err := s.Reload(); err != nil {
			return nil, err
		}
	}
	if cfg.Store != nil {
		if err := s.LoadStore(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// NewFromRuleSet builds a server around an already-loaded rule set (tests,
// embedding). Path-based reload still works when cfg.RulesPath is set.
func NewFromRuleSet(cfg Config, rules *core.RuleSet, source string) (*Server, error) {
	if rules == nil || rules.Schema == nil {
		return nil, errors.New("serve: rule set must carry a schema (payloads are validated by attribute name)")
	}
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.install(DefaultTenant, rules, source)
	return s, nil
}

func newServer(cfg Config) (*Server, error) {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("serve: MaxInFlight %d must be positive", cfg.MaxInFlight)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		store:    cfg.Store,
		tenants:  map[string]*tenantState{},
		inflight: make(chan struct{}, cfg.MaxInFlight),
		mux:      http.NewServeMux(),

		gaugeInFlight: cfg.Registry.Gauge(telemetry.MetricServeInFlight),
		ctrShed:       cfg.Registry.Counter(telemetry.MetricServeShed),
		ctrTimeout:    cfg.Registry.Counter(telemetry.MetricServeTimeouts),
		ctrReloads:    cfg.Registry.Counter(telemetry.MetricServeReloads),
		ctrReloadErrs: cfg.Registry.Counter(telemetry.MetricServeReloadErrors),
	}
	s.routes()
	s.root = s.rootHandler()
	s.http = &http.Server{Handler: s.root}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// install makes rules the tenant's served artifact and returns its
// generation. Concurrent requests keep using the artifact they started with;
// new requests see the new one. Callers other than construction must hold
// reloadMu — the pointer swap is atomic, but two unserialized installs could
// otherwise interleave generation allocation and storing, breaking the
// monotone served-generation guarantee InstallIfGeneration relies on.
func (s *Server) install(tenant string, rules *core.RuleSet, source string) uint64 {
	rules.SetTelemetry(s.reg)
	ts := s.tenantState(tenant, true)
	gen := ts.genCtr.Add(1)
	ts.art.Store(&artifact{
		rules:    rules,
		summary:  core.Summarize(rules),
		source:   source,
		loadedAt: time.Now(),
		gen:      gen,
	})
	s.logf("serve: installed %d rules (y=%s, tenant %s, gen %d) from %s",
		rules.NumRules(), rules.YName(), tenant, gen, source)
	return gen
}

// artifactNow returns the DefaultTenant's currently served artifact.
func (s *Server) artifactNow() *artifact {
	if ts := s.tenantState(DefaultTenant, false); ts != nil {
		return ts.art.Load()
	}
	return nil
}

// Generation returns the generation of the DefaultTenant's currently served
// artifact. Every successful install (construction, reload, InstallTenant,
// InstallIfGeneration) bumps it; it never moves backwards.
func (s *Server) Generation() uint64 { return s.TenantGeneration(DefaultTenant) }

// InstallIfGeneration swaps rules in only when the served artifact still has
// generation ifGen, returning the resulting current generation and whether
// the swap happened. This is the compare-and-swap form of InstallTenant for
// the DefaultTenant: a writer that derived its rule set from generation G
// passes ifGen=G, and a concurrent operator reload (which bumped the
// generation) makes the stale swap a no-op instead of silently reverting the
// operator's artifact. On failure the caller re-derives from the returned
// generation and retries.
func (s *Server) InstallIfGeneration(rules *core.RuleSet, source string, ifGen uint64) (uint64, bool, error) {
	if rules == nil || rules.Schema == nil {
		return 0, false, errors.New("serve: rule set must carry a schema (payloads are validated by attribute name)")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if cur := s.Generation(); cur != ifGen {
		return cur, false, nil
	}
	s.ctrReloads.Inc()
	return s.install(DefaultTenant, rules, source), true, nil
}

// Reload re-reads the artifact from Config.RulesPath and swaps it in without
// interrupting in-flight requests. A broken file leaves the served set
// untouched and is reported as an error.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.cfg.RulesPath == "" {
		s.ctrReloadErrs.Inc()
		return errors.New("serve: no rules path configured")
	}
	f, err := os.Open(s.cfg.RulesPath)
	if err != nil {
		s.ctrReloadErrs.Inc()
		return fmt.Errorf("serve: reload: %w", err)
	}
	defer f.Close()
	return s.reloadFrom(DefaultTenant, f, s.cfg.RulesPath)
}

// ReloadTenantFrom parses a rule-set artifact from r and swaps it in as
// tenant's artifact (the body form of POST /v1/reload). The caller holds no
// lock; reloads serialize on the server's reload mutex.
func (s *Server) ReloadTenantFrom(tenant string, r io.Reader, source string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloadFrom(tenant, r, source)
}

func (s *Server) reloadFrom(tenant string, r io.Reader, source string) error {
	rules, err := core.ReadRuleSet(r)
	if err != nil {
		s.ctrReloadErrs.Inc()
		return err
	}
	s.install(tenant, rules, source)
	s.ctrReloads.Inc()
	return nil
}

// Handler returns the server's HTTP handler (the /t/{tenant} rewriter in
// front of the route table), for embedding and for httptest-based tests.
func (s *Server) Handler() http.Handler { return s.root }

// StartDrain flips the node into draining: /healthz starts reporting
// "draining", which removes this node from the cluster assignment ring while
// it keeps answering requests — the graceful half of a rolling restart,
// called on SIGTERM before Shutdown.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.logf("serve: draining (healthz now reports draining)")
	}
}

// Serve accepts connections on l until Shutdown (or Close). It returns
// http.ErrServerClosed after a clean shutdown, mirroring net/http.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("serve: listening on %s", l.Addr())
	return s.Serve(l)
}

// Shutdown stops accepting new connections and waits — up to ctx's deadline
// — for in-flight requests to drain, then releases the listeners.
func (s *Server) Shutdown(ctx context.Context) error {
	s.logf("serve: shutting down, draining %d in-flight request(s)", s.inflightNow.Load())
	return s.http.Shutdown(ctx)
}

// Close abandons in-flight requests and releases the listeners immediately.
func (s *Server) Close() error { return s.http.Close() }

// routes wires the endpoint table. Data-plane endpoints go through the full
// gate (shed → deadline → metrics); control-plane endpoints stay reachable
// even when the data plane is saturated, so operators can still scrape
// /metrics and probe /healthz during an overload.
func (s *Server) routes() {
	s.mux.Handle("/v1/predict", s.gate(s.ep("predict"), http.MethodPost, true, s.handlePredict))
	s.mux.Handle("/v1/check", s.gate(s.ep("check"), http.MethodPost, true, s.handleCheck))
	s.mux.Handle("/v1/impute", s.gate(s.ep("impute"), http.MethodPost, true, s.handleImpute))
	s.mux.Handle("/v1/rules", s.gate(s.ep("rules"), http.MethodGet, false, s.handleRules))
	s.mux.Handle("/v1/reload", s.gate(s.ep("reload"), http.MethodPost, false, s.handleReload))
	s.mux.Handle("/healthz", s.gate(s.ep("healthz"), http.MethodGet, false, s.handleHealthz))
	s.mux.Handle("/metrics", s.gate(s.ep("metrics"), http.MethodGet, false, s.handleMetrics))
	// Registry control plane (answers 503 unavailable without a Store).
	s.mux.Handle("/v1/registry/publish", s.gate(s.ep("registry_publish"), http.MethodPost, false, s.handleRegistryPublish))
	s.mux.Handle("/v1/registry/activate", s.gate(s.ep("registry_activate"), http.MethodPost, false, s.handleRegistryActivate))
	s.mux.Handle("/v1/registry/rollback", s.gate(s.ep("registry_rollback"), http.MethodPost, false, s.handleRegistryRollback))
	s.mux.Handle("/v1/registry/list", s.gate(s.ep("registry_list"), http.MethodGet, false, s.handleRegistryList))
}

// ep resolves the per-endpoint metric handles once, at route time.
func (s *Server) ep(name string) *endpoint {
	return &endpoint{
		name:     name,
		requests: s.reg.Counter(telemetry.ServeRequests(name)),
		errors:   s.reg.Counter(telemetry.ServeErrors(name)),
		latency:  s.reg.Histogram(telemetry.ServeLatency(name)),
	}
}

// Stable machine-readable error codes carried in the JSON error envelope
// ({"error":{"code","message"}}). Codes are the contract clients switch on;
// messages are human-readable detail and may change freely. Documented in
// docs/API.md.
const (
	// CodeInvalidArgument: the request body or parameters failed validation.
	CodeInvalidArgument = "invalid_argument"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnsupportedMedia: the Content-Type names no supported codec.
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeOverloaded: the in-flight limit was hit; retry after backoff.
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded: the per-request processing deadline passed.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeReloadFailed: the artifact in a reload request did not parse.
	CodeReloadFailed = "reload_failed"
	// CodeUnavailable: no rule set is loaded (or no registry configured).
	CodeUnavailable = "unavailable"
	// CodeUnknownTenant: the addressed tenant has no artifact here.
	CodeUnknownTenant = "unknown_tenant"
	// CodeUnknownVersion: the registry retains no such version.
	CodeUnknownVersion = "unknown_version"
	// CodeRegistryRejected: the registry refused the mutation (bad artifact,
	// invalid tenant name, size cap).
	CodeRegistryRejected = "registry_rejected"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// apiError is a handler failure destined for the JSON error envelope.
type apiError struct {
	status int
	code   string
	msg    string
}

func errf(status int, code string, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// gate is the shared middleware: method check, optional load shedding,
// per-request deadline, request metrics, and the JSON error envelope.
func (s *Server) gate(ep *endpoint, method string, shed bool, h func(http.ResponseWriter, *http.Request) *apiError) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Inc()
		if r.Method != method {
			ep.errors.Inc()
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				"method %s not allowed, use %s", r.Method, method)
			return
		}
		// The deadline covers the whole admitted request, the OnRequest shim
		// included, so slow admission cannot grant extra processing budget.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if shed {
			select {
			case s.inflight <- struct{}{}:
				s.gaugeInFlight.Set(float64(s.inflightNow.Add(1)))
				defer func() {
					s.gaugeInFlight.Set(float64(s.inflightNow.Add(-1)))
					<-s.inflight
				}()
			default:
				// Saturated: reject now rather than queue unboundedly.
				s.ctrShed.Inc()
				ep.errors.Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, CodeOverloaded,
					"server at its in-flight limit (%d), retry later", s.cfg.MaxInFlight)
				return
			}
			if s.cfg.OnRequest != nil {
				s.cfg.OnRequest(ep.name)
			}
		}

		start := time.Now()
		err := h(w, r)
		ep.latency.Observe(time.Since(start))
		if err != nil {
			ep.errors.Inc()
			if err.status == http.StatusGatewayTimeout {
				s.ctrTimeout.Inc()
			}
			writeError(w, err.status, err.code, "%s", err.msg)
		}
	})
}

// writeError emits the structured JSON error envelope. Errors are always
// JSON, whatever format the request negotiated — a client that cannot parse
// a columnar response can always parse the failure that replaced it.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	if code == "" {
		code = CodeInternal
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	type errBody struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	_ = json.NewEncoder(w).Encode(struct {
		Error errBody `json:"error"`
	}{errBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeJSON emits a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) *apiError {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing recoverable. Surface nothing.
		return nil
	}
	return nil
}

// ctxExpired translates a deadline hit into the 504 envelope.
func ctxExpired(ctx context.Context) *apiError {
	if ctx.Err() == nil {
		return nil
	}
	return errf(http.StatusGatewayTimeout, CodeDeadlineExceeded,
		"request abandoned after deadline (%v)", ctx.Err())
}
