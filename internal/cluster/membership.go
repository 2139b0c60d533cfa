package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/crrlab/crr/internal/telemetry"
)

// NodeState is a member's liveness state.
type NodeState string

const (
	// NodeUp: probing healthy; takes assignments and serves reads.
	NodeUp NodeState = "up"
	// NodeDraining: announced a graceful shutdown via /healthz. The node
	// stays readable (it still answers, and in-flight artifacts remain
	// valid) but takes no new assignments — it is out of the hash ring and
	// only used as a last-resort read fallback.
	NodeDraining NodeState = "draining"
	// NodeDown: failed its probe threshold or was reported dead by a
	// forwarding failure. Excluded from routing until a probe succeeds.
	NodeDown NodeState = "down"
)

// NodeInfo is one member as published in the shard map.
type NodeInfo struct {
	// Name is the stable ring identity (assignment moves with the name, not
	// the address).
	Name string `json:"name"`
	// URL is the node's base URL, e.g. "http://10.0.0.7:8080".
	URL string `json:"url"`
	// State is the tracked liveness state.
	State NodeState `json:"state"`
	// Generation is the artifact generation the node reported on its last
	// successful probe (0 before the first one).
	Generation uint64 `json:"generation,omitempty"`
}

// ShardMap is the versioned routing document: everything a router or a
// shard-map-aware SDK client needs to route tenants itself. Version
// increments on every membership or state change, and doubles as the ETag
// of GET /v1/shardmap.
type ShardMap struct {
	Version  uint64     `json:"version"`
	VNodes   int        `json:"vnodes"`
	Replicas int        `json:"replicas"`
	Nodes    []NodeInfo `json:"nodes"`
}

// ETag renders the map version as a strong HTTP entity tag.
func (m *ShardMap) ETag() string {
	return fmt.Sprintf("%q", fmt.Sprintf("crr-shardmap-v%d", m.Version))
}

// Ring builds the assignment ring over the map's up nodes.
func (m *ShardMap) Ring() (*Ring, error) {
	var up []string
	for _, n := range m.Nodes {
		if n.State == NodeUp {
			up = append(up, n.Name)
		}
	}
	return NewRing(up, m.VNodes)
}

// Route resolves the candidate nodes for a tenant key: the owning up-node
// first, then up-replicas in ring order, then draining nodes as last-resort
// read fallbacks. Returns nil when no node is reachable.
func (m *ShardMap) Route(tenant string) []NodeInfo {
	ring, err := m.Ring()
	if err != nil {
		return nil
	}
	byName := make(map[string]NodeInfo, len(m.Nodes))
	for _, n := range m.Nodes {
		byName[n.Name] = n
	}
	var out []NodeInfo
	limit := m.Replicas
	if limit <= 0 {
		limit = 2
	}
	for _, name := range ring.Lookup(tenant, limit) {
		out = append(out, byName[name])
	}
	for _, n := range m.Nodes {
		if n.State == NodeDraining {
			out = append(out, n)
		}
	}
	return out
}

// NodeSpec names one static cluster member for NewTracker.
type NodeSpec struct {
	Name string
	URL  string
}

// ParseNodeSpec parses "name=url" (or a bare URL, whose name is the
// host:port) — the -node flag grammar of crrrouter.
func ParseNodeSpec(s string) (NodeSpec, error) {
	if name, url, ok := strings.Cut(s, "="); ok && !strings.Contains(name, "/") {
		if name == "" || url == "" {
			return NodeSpec{}, fmt.Errorf("cluster: malformed node spec %q (want name=url)", s)
		}
		return NodeSpec{Name: name, URL: strings.TrimRight(url, "/")}, nil
	}
	url := strings.TrimRight(s, "/")
	name := strings.TrimPrefix(strings.TrimPrefix(url, "https://"), "http://")
	if name == "" {
		return NodeSpec{}, fmt.Errorf("cluster: malformed node spec %q", s)
	}
	return NodeSpec{Name: name, URL: url}, nil
}

// probeTimeout bounds one /healthz probe round trip.
const probeTimeout = time.Second

// TrackerConfig parameterizes a Tracker; zero values take the documented
// defaults.
type TrackerConfig struct {
	// ProbeInterval is the periodic /healthz cadence of Run. Default 2s.
	ProbeInterval time.Duration
	// FailThreshold is the consecutive probe failures that mark a node down.
	// Default 2 (one blip does not reshard the fleet).
	FailThreshold int
	// VNodes is the ring's virtual-node count per node. Default DefaultVNodes.
	VNodes int
	// Replicas is the failover depth published in the shard map. Default 2.
	Replicas int
	// Registry receives cluster.nodes_up / cluster.ring_rebuilds.
	Registry *telemetry.Registry
	// Logf, when set, receives one line per state transition.
	Logf func(format string, args ...any)
}

// Tracker maintains the live membership view: per-node liveness from
// periodic /healthz probes (plus passive MarkDown feedback from forwarding
// failures) and the consistent-hash ring over the up nodes. Nodes start
// optimistically up; the first probe round corrects.
type Tracker struct {
	cfg   TrackerConfig
	httpc *http.Client

	mu      sync.Mutex
	nodes   []*trackedNode // sorted by name
	ring    *Ring
	version uint64

	gaugeUp     *telemetry.Gauge
	ctrRebuilds *telemetry.Counter
}

type trackedNode struct {
	info  NodeInfo
	fails int
}

// NewTracker builds a tracker over the static member set.
func NewTracker(specs []NodeSpec, cfg TrackerConfig) (*Tracker, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: at least one node is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	t := &Tracker{
		cfg:         cfg,
		httpc:       &http.Client{Timeout: probeTimeout},
		version:     1,
		gaugeUp:     cfg.Registry.Gauge(telemetry.MetricClusterNodesUp),
		ctrRebuilds: cfg.Registry.Counter(telemetry.MetricClusterRingRebuilds),
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("cluster: node spec needs name and url, got %+v", s)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", s.Name)
		}
		seen[s.Name] = true
		t.nodes = append(t.nodes, &trackedNode{info: NodeInfo{
			Name: s.Name, URL: strings.TrimRight(s.URL, "/"), State: NodeUp,
		}})
	}
	sort.Slice(t.nodes, func(i, j int) bool { return t.nodes[i].info.Name < t.nodes[j].info.Name })
	if err := t.rebuildLocked(); err != nil {
		return nil, err
	}
	return t, nil
}

// rebuildLocked recomputes the ring over the up nodes. Callers hold mu.
func (t *Tracker) rebuildLocked() error {
	var up []string
	for _, n := range t.nodes {
		if n.info.State == NodeUp {
			up = append(up, n.info.Name)
		}
	}
	ring, err := NewRing(up, t.cfg.VNodes)
	if err != nil {
		return err
	}
	t.ring = ring
	t.ctrRebuilds.Inc()
	t.gaugeUp.Set(float64(len(up)))
	return nil
}

func (t *Tracker) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Version returns the current shard-map version.
func (t *Tracker) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Snapshot publishes the current membership as a versioned shard map.
func (t *Tracker) Snapshot() ShardMap {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := ShardMap{
		Version:  t.version,
		VNodes:   t.cfg.VNodes,
		Replicas: t.cfg.Replicas,
		Nodes:    make([]NodeInfo, len(t.nodes)),
	}
	for i, n := range t.nodes {
		m.Nodes[i] = n.info
	}
	return m
}

// Route resolves the forwarding candidates for a tenant: the owning up-node,
// its up-replicas in ring order, then draining nodes as read fallbacks.
func (t *Tracker) Route(tenant string) []NodeInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	byName := make(map[string]NodeInfo, len(t.nodes))
	for _, n := range t.nodes {
		byName[n.info.Name] = n.info
	}
	var out []NodeInfo
	for _, name := range t.ring.Lookup(tenant, t.cfg.Replicas) {
		out = append(out, byName[name])
	}
	for _, n := range t.nodes {
		if n.info.State == NodeDraining {
			out = append(out, n.info)
		}
	}
	return out
}

// MarkDown records a forwarding failure against the named node — passive
// liveness feedback so traffic re-homes immediately instead of waiting for
// the next probe round. A later successful probe brings the node back.
func (t *Tracker) MarkDown(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.nodes {
		if n.info.Name != name || n.info.State == NodeDown {
			continue
		}
		n.info.State = NodeDown
		n.fails = t.cfg.FailThreshold
		t.version++
		_ = t.rebuildLocked()
		t.logf("cluster: node %s marked down by forwarding failure", name)
	}
}

// healthzBody mirrors the serve /healthz answer.
type healthzBody struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
}

// ProbeOnce probes every node's /healthz once, concurrently, and applies the
// observed states. Deterministic enough for tests to drive without Run.
func (t *Tracker) ProbeOnce(ctx context.Context) {
	t.mu.Lock()
	targets := make([]NodeInfo, len(t.nodes))
	for i, n := range t.nodes {
		targets[i] = n.info
	}
	t.mu.Unlock()

	results := make([]probeResult, len(targets))
	var wg sync.WaitGroup
	for i, n := range targets {
		wg.Add(1)
		go func(i int, n NodeInfo) {
			defer wg.Done()
			results[i] = t.probe(ctx, n)
		}(i, n)
	}
	wg.Wait()

	t.mu.Lock()
	defer t.mu.Unlock()
	changed := false
	for i, res := range results {
		n := t.nodes[i]
		if n.info.Name != targets[i].Name {
			continue // membership is static; defensive only
		}
		prev := n.info.State
		switch {
		case res.err != nil:
			n.fails++
			if n.fails >= t.cfg.FailThreshold {
				n.info.State = NodeDown
			}
		case res.draining:
			n.fails = 0
			n.info.State = NodeDraining
			n.info.Generation = res.generation
		default:
			n.fails = 0
			n.info.State = NodeUp
			n.info.Generation = res.generation
		}
		if n.info.State != prev {
			changed = true
			t.logf("cluster: node %s %s → %s", n.info.Name, prev, n.info.State)
		}
	}
	if changed {
		t.version++
		_ = t.rebuildLocked()
	}
}

type probeResult struct {
	err        error
	draining   bool
	generation uint64
}

func (t *Tracker) probe(ctx context.Context, n NodeInfo) probeResult {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/healthz", nil)
	if err != nil {
		return probeResult{err: err}
	}
	resp, err := t.httpc.Do(req)
	if err != nil {
		return probeResult{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return probeResult{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return probeResult{err: fmt.Errorf("healthz %s: HTTP %d", n.Name, resp.StatusCode)}
	}
	var h healthzBody
	if err := json.Unmarshal(body, &h); err != nil {
		return probeResult{err: fmt.Errorf("healthz %s: %w", n.Name, err)}
	}
	return probeResult{draining: h.Status == "draining", generation: h.Generation}
}

// Run probes on the configured cadence until ctx is canceled.
func (t *Tracker) Run(ctx context.Context) {
	ticker := time.NewTicker(t.cfg.ProbeInterval)
	defer ticker.Stop()
	t.ProbeOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			t.ProbeOnce(ctx)
		}
	}
}
