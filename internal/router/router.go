// Package router is the stateless front door of a rule-serving cluster: it
// resolves the tenant a request addresses, picks the owning serve node from
// the consistent-hash ring (internal/cluster), and forwards the request
// without touching the body — both codecs (JSON and binary columnar) pass
// through byte-for-byte, so router-path responses are bitwise-identical to
// direct-node responses.
//
// Reliability behaviors, all per request:
//
//   - a forwarding deadline (Config.RequestTimeout);
//   - single-retry failover: a transport-level failure (connection refused,
//     reset) marks the node down in the tracker and replays the buffered
//     body against the next ring replica — node answers, including errors,
//     are never retried (the node spoke; the router relays);
//   - per-tenant token-bucket quotas (429 + Retry-After when drained);
//   - per-tenant in-flight caps, bounding how much of the fleet one tenant
//     can occupy.
//
// The router owns no artifact state. Everything it knows — membership, ring,
// liveness — lives in the cluster.Tracker, and clients can fetch the same
// view from GET /v1/shardmap (ETag/If-None-Match cached) to route directly.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/crrlab/crr/internal/cluster"
	"github.com/crrlab/crr/internal/serve"
	"github.com/crrlab/crr/internal/telemetry"
)

// Config parameterizes a Router. Zero values of optional fields take the
// documented defaults.
type Config struct {
	// Tracker supplies membership, liveness and the ring. Required.
	Tracker *cluster.Tracker

	// RequestTimeout bounds one forwarded request, all failover attempts
	// included. Default 30s.
	RequestTimeout time.Duration

	// MaxBodyBytes bounds buffered request bodies. Default 32 MiB.
	MaxBodyBytes int64

	// QuotaRPS is the per-tenant token-bucket refill rate in requests per
	// second; 0 disables rate limiting.
	QuotaRPS float64

	// QuotaBurst is the bucket depth. Default max(1, ceil(QuotaRPS)).
	QuotaBurst int

	// TenantMaxInFlight caps one tenant's concurrently forwarded requests;
	// 0 disables the cap.
	TenantMaxInFlight int

	// Transport performs the upstream round trips. Default: a dedicated
	// keep-alive transport.
	Transport http.RoundTripper

	// Registry receives router.* metrics. Default: a fresh registry.
	Registry *telemetry.Registry

	// Logf, when set, receives one line per lifecycle event. Default: silent.
	Logf func(format string, args ...any)

	// Now is the clock the token buckets read (injectable for tests).
	// Default time.Now.
	Now func() time.Time
}

// tenantCtl is one tenant's quota state.
type tenantCtl struct {
	mu       sync.Mutex
	tokens   float64
	last     time.Time
	inflight int64
}

// Router is the stateless forwarding tier. Create with New, expose via
// Handler.
type Router struct {
	cfg     Config
	tracker *cluster.Tracker
	reg     *telemetry.Registry
	rt      http.RoundTripper
	now     func() time.Time

	tmu     sync.Mutex
	tenants map[string]*tenantCtl

	mux *http.ServeMux

	ctrForwards   *telemetry.Counter
	ctrFailovers  *telemetry.Counter
	ctrQuota      *telemetry.Counter
	ctrUpstream   *telemetry.Counter
	gaugeInflight *telemetry.Gauge
}

// New builds a router over an already-constructed tracker.
func New(cfg Config) (*Router, error) {
	if cfg.Tracker == nil {
		return nil, fmt.Errorf("router: Config.Tracker is required")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.QuotaRPS > 0 && cfg.QuotaBurst == 0 {
		cfg.QuotaBurst = int(math.Ceil(cfg.QuotaRPS))
		if cfg.QuotaBurst < 1 {
			cfg.QuotaBurst = 1
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	if cfg.Transport == nil {
		// Large socket buffers matter here: data-plane bodies run to
		// hundreds of kilobytes, and the default 4 KiB buffers turn one
		// forwarded batch into dozens of write syscalls.
		cfg.Transport = &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			WriteBufferSize:     64 << 10,
			ReadBufferSize:      64 << 10,
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Router{
		cfg:     cfg,
		tracker: cfg.Tracker,
		reg:     cfg.Registry,
		rt:      cfg.Transport,
		now:     cfg.Now,
		tenants: map[string]*tenantCtl{},
		mux:     http.NewServeMux(),

		ctrForwards:   cfg.Registry.Counter(telemetry.MetricRouterForwards),
		ctrFailovers:  cfg.Registry.Counter(telemetry.MetricRouterFailovers),
		ctrQuota:      cfg.Registry.Counter(telemetry.MetricRouterQuotaRejections),
		ctrUpstream:   cfg.Registry.Counter(telemetry.MetricRouterUpstreamErrors),
		gaugeInflight: cfg.Registry.Gauge(telemetry.MetricRouterTenantInFlight),
	}
	r.mux.HandleFunc("/v1/shardmap", r.handleShardMap)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/metrics", r.handleMetrics)
	r.mux.HandleFunc("/", r.handleForward)
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// tenantOf resolves the tenant a request addresses: /t/{tenant}/... wins,
// then the X-CRR-Tenant header, then serve.DefaultTenant. The returned path
// is the node-side path (tenant prefix stripped — the tenant travels in the
// header so the body and path reach the node in canonical form).
func tenantOf(req *http.Request) (tenant, path string) {
	if rest, ok := strings.CutPrefix(req.URL.Path, "/t/"); ok {
		if t, sub, found := strings.Cut(rest, "/"); found && t != "" {
			return t, "/" + sub
		}
	}
	if t := req.Header.Get(serve.TenantHeader); t != "" {
		return t, req.URL.Path
	}
	return serve.DefaultTenant, req.URL.Path
}

// ctl returns the tenant's quota state, creating it at full burst.
func (r *Router) ctl(tenant string) *tenantCtl {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	c := r.tenants[tenant]
	if c == nil {
		c = &tenantCtl{tokens: float64(r.cfg.QuotaBurst), last: r.now()}
		r.tenants[tenant] = c
	}
	return c
}

// admit runs the tenant through the token bucket and the in-flight cap. It
// returns (release, retryAfterSeconds, ok): on ok the caller must call
// release, otherwise retryAfter says how long the client should back off.
func (r *Router) admit(tenant string) (func(), int, bool) {
	c := r.ctl(tenant)
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.cfg.QuotaRPS > 0 {
		now := r.now()
		c.tokens = math.Min(float64(r.cfg.QuotaBurst), c.tokens+now.Sub(c.last).Seconds()*r.cfg.QuotaRPS)
		c.last = now
		if c.tokens < 1 {
			wait := int(math.Ceil((1 - c.tokens) / r.cfg.QuotaRPS))
			if wait < 1 {
				wait = 1
			}
			return nil, wait, false
		}
		c.tokens--
	}
	if r.cfg.TenantMaxInFlight > 0 && c.inflight >= int64(r.cfg.TenantMaxInFlight) {
		// Refund the token: the request never ran.
		if r.cfg.QuotaRPS > 0 {
			c.tokens++
		}
		return nil, 1, false
	}
	c.inflight++
	r.gaugeInflight.Set(float64(c.inflight))
	return func() {
		c.mu.Lock()
		c.inflight--
		r.gaugeInflight.Set(float64(c.inflight))
		c.mu.Unlock()
	}, 0, true
}

// writeError emits serve's JSON error envelope so router rejections look
// exactly like node rejections to clients.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
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

// CodeNoNodes is the router's "no live node owns this tenant" error code.
const CodeNoNodes = "no_nodes"

// CodeQuotaExceeded is the router's per-tenant quota rejection code.
const CodeQuotaExceeded = "quota_exceeded"

// handleForward is the data path: resolve tenant → quota → pick candidates →
// forward with single-retry failover, relaying the node's response bytes
// untouched.
func (r *Router) handleForward(w http.ResponseWriter, req *http.Request) {
	tenant, path := tenantOf(req)

	release, retryAfter, ok := r.admit(tenant)
	if !ok {
		r.ctrQuota.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeError(w, http.StatusTooManyRequests, CodeQuotaExceeded,
			"tenant %q over quota, retry in %ds", tenant, retryAfter)
		return
	}
	defer release()

	cands := r.tracker.Route(tenant)
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, CodeNoNodes,
			"no live serve node for tenant %q", tenant)
		return
	}

	// Buffer the body once so a failover can replay it. Data-plane bodies
	// are bounded; the buffer also gives upstreams a Content-Length.
	body, putBody, err := r.readBody(w, req)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", "%v", err)
		return
	}
	defer putBody()

	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()

	// Single-retry failover: the primary plus at most one replica.
	attempts := len(cands)
	if attempts > 2 {
		attempts = 2
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		node := cands[i]
		if i > 0 {
			r.ctrFailovers.Inc()
			r.logf("router: tenant %s failing over to %s after: %v", tenant, node.Name, lastErr)
		}
		resp, err := r.forwardOnce(ctx, node, tenant, path, req, body)
		if err != nil {
			lastErr = err
			r.ctrUpstream.Inc()
			// The node never answered: mark it down so the ring stops
			// assigning to it until a probe resurrects it, then try the
			// next replica. Nothing was relayed, so the retry is safe for
			// idempotent and non-idempotent requests alike.
			r.tracker.MarkDown(node.Name)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		defer resp.Body.Close()
		r.ctrForwards.Inc()
		relay(w, resp)
		return
	}
	if ctx.Err() != nil {
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"forwarding for tenant %q timed out: %v", tenant, lastErr)
		return
	}
	writeError(w, http.StatusBadGateway, "upstream_unreachable",
		"all candidates for tenant %q failed, last: %v", tenant, lastErr)
}

// bodyPool recycles request-body buffers across forwards; data-plane batch
// bodies run to hundreds of kilobytes and allocating one per request is the
// single biggest router-side cost. Buffers keep their grown capacity across
// requests, so steady-state forwarding reads bodies without allocating.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody buffers the request body for replay into a pooled buffer. put
// returns the buffer to the pool and must be called after the last replay
// attempt (the returned slice aliases the buffer).
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) (body []byte, put func(), err error) {
	bb := bodyPool.Get().(*bytes.Buffer)
	bb.Reset()
	if n := req.ContentLength; n > 0 && n <= r.cfg.MaxBodyBytes {
		bb.Grow(int(n))
	}
	if _, err := bb.ReadFrom(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)); err != nil {
		bodyPool.Put(bb)
		return nil, nil, err
	}
	return bb.Bytes(), func() { bodyPool.Put(bb) }, nil
}

// forwardOnce sends one upstream attempt. The request is rebuilt from the
// buffered body; headers are copied as-is (minus hop-by-hop), so content
// negotiation happens end-to-end between client and node.
func (r *Router) forwardOnce(ctx context.Context, node cluster.NodeInfo,
	tenant, path string, orig *http.Request, body []byte) (*http.Response, error) {
	u := node.URL + path
	if q := orig.URL.RawQuery; q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(ctx, orig.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.ContentLength = int64(len(body))
	for k, vs := range orig.Header {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade", "Host":
			continue
		}
		req.Header[http.CanonicalHeaderKey(k)] = vs
	}
	req.Header.Set(serve.TenantHeader, tenant)
	return r.rt.RoundTrip(req)
}

// relay copies the node's response to the client byte-for-byte.
func relay(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleShardMap answers GET /v1/shardmap with the tracker's current view.
// The ETag is the shard-map version; If-None-Match short-circuits to 304 so
// SDK clients can poll cheaply.
func (r *Router) handleShardMap(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	m := r.tracker.Snapshot()
	etag := m.ETag()
	w.Header().Set("ETag", etag)
	if req.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(m)
}

// handleHealthz reports the router's own liveness plus the fleet view.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := r.tracker.Snapshot()
	up := 0
	for _, n := range m.Nodes {
		if n.State == cluster.NodeUp {
			up++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status   string `json:"status"`
		Nodes    int    `json:"nodes"`
		NodesUp  int    `json:"nodes_up"`
		MapVer   uint64 `json:"shardmap_version"`
		Replicas int    `json:"replicas"`
	}{"ok", len(m.Nodes), up, m.Version, m.Replicas})
}

// handleMetrics exposes the router's telemetry registry.
func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.reg.Snapshot().WriteText(w)
}
