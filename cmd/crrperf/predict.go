package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/pkg/client"
)

// The load generator's budget: one process, at most two connections (and
// run at GOMAXPROCS ≤ 2, set in main).
const conns = 2

// tenantData is one tenant's artifact and the request batches sent for it,
// each with the predictions an in-process run of the artifact gives.
type tenantData struct {
	name     string
	artifact []byte
	rules    *core.RuleSet // parsed back from artifact, as a node loads it
	batches  []*client.Batch
	rows     []*dataset.ColumnSet // the rows of each batch
	want     []wantPreds
}

type wantPreds struct {
	values  []float64
	covered []bool
}

// matches reports whether p equals w bit for bit.
func (w wantPreds) matches(p *client.Predictions) error {
	if len(p.Values) != len(w.values) || len(p.Covered) != len(w.covered) {
		return fmt.Errorf("%d predictions for %d rows", len(p.Values), len(w.values))
	}
	for i, v := range w.values {
		if math.Float64bits(p.Values[i]) != math.Float64bits(v) || p.Covered[i] != w.covered[i] {
			return fmt.Errorf("row %d: got (%v, %v), in-process (%v, %v)", i, p.Values[i], p.Covered[i], v, w.covered[i])
		}
	}
	return nil
}

// discoverArtifact mines, compacts and serializes one rule set the way the
// CLI pipeline does (crrdiscover -compact -save).
func (r *run) discoverArtifact(rel *dataset.Relation, cfg core.DiscoverConfig, condAttrs []int, pcfg predicate.GeneratorConfig) ([]byte, error) {
	d := r.tr.do(0, "predicate.generate", func(int64) { cfg.Preds = predicate.Generate(rel, condAttrs, pcfg) })
	r.observe("predicate.generate_ms", "ms", ms(d))
	_, art, _, err := r.mine(0, rel.Len(), cfg, func(opts ...core.DiscoverOption) (*core.DiscoverResult, error) {
		return core.Discover(r.ctx, rel, opts...)
	})
	return art, err
}

// fleet is the serving cluster of predict-routed-1k.
type fleet struct {
	nodes  []*child
	router *child
}

func (f *fleet) stop() (peakRSSMB float64, err error) {
	return stopAll(append([]*child{f.router}, f.nodes...)...)
}

func (f *fleet) pids() []int {
	pids := []int{f.router.cmd.Process.Pid}
	for _, n := range f.nodes {
		pids = append(pids, n.cmd.Process.Pid)
	}
	return pids
}

// runPredictRouted is predict-routed-1k: four tax tenants on two registry
// nodes behind crrrouter, driven with 1,000-row binary predicts through
// pkg/client. Per-request costs (HTTP, router admission, lookup and
// forwarding, wire framing) outweigh classification here.
func runPredictRouted(r *run) error {
	const tenants, batchesPerTenant = 4, 4
	rows, batchRows, rate := 2000, 1000, 600.0
	if r.quick {
		rows, batchRows, rate = 400, 100, 100
	}
	hc := httpClient(conns)
	defer hc.CloseIdleConnections()
	var data []*tenantData
	var cl *fleet
	teardown, err := r.setUp(func() (func(), error) {
		data = make([]*tenantData, tenants)
		for t := range data {
			cfg := dataset.DefaultTaxConfig()
			cfg.Rows, cfg.Seed = rows, r.seed*tenants+int64(t)
			art, err := r.discoverArtifact(dataset.GenerateTax(cfg),
				core.DiscoverConfig{XAttrs: []int{0}, YAttr: 4, RhoM: 60}, []int{1}, predicate.GeneratorConfig{})
			if err != nil {
				return nil, err
			}
			data[t] = &tenantData{name: fmt.Sprintf("tenant%d", t), artifact: art}
		}
		var err error
		cl, err = startFleet(r, hc, data)
		if err != nil {
			return nil, err
		}
		f := cl
		return func() { f.stop() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// The requests and what the artifacts answer them in-process.
	var shas []string
	for t, td := range data {
		sum := sha256.Sum256(td.artifact)
		shas = append(shas, hex.EncodeToString(sum[:]))
		if td.rules, err = core.ReadRuleSet(bytes.NewReader(td.artifact)); err != nil {
			return err
		}
		for b := 0; b < batchesPerTenant; b++ {
			cfg := dataset.DefaultTaxConfig()
			cfg.Rows, cfg.Seed = batchRows, 1<<30+r.seed*tenants*batchesPerTenant+int64(t*batchesPerTenant+b)
			rel := dataset.GenerateTax(cfg)
			batch, err := cliutil.ClientBatch(rel)
			if err != nil {
				return err
			}
			cs := dataset.NewColumnSet(rel)
			vals, cov := td.rules.PredictView(cs.View())
			td.batches = append(td.batches, batch)
			td.rows = append(td.rows, cs)
			td.want = append(td.want, wantPreds{vals, cov})
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(shas, "\n")))
	r.res.RulesSHA = hex.EncodeToString(sum[:])
	clients := make([]*client.Client, tenants)
	for t, td := range data {
		clients[t] = client.New(cl.router.url, client.WithHTTPClient(hc), client.WithFormat(client.FormatBinary), client.WithTenant(td.name))
	}
	// Requests go out in blocks that visit every tenant and batch once. The
	// traced phase traces every other block, so both halves of
	// trace.overhead_pct send the same requests.
	traced := func(i int) bool { return (i/(tenants*batchesPerTenant))%2 == 0 }
	var mu sync.Mutex
	send := func(i int) error {
		t, b := i%tenants, (i/tenants)%batchesPerTenant
		td := data[t]
		tr := r.tr
		if !traced(i) {
			tr = nil
		}
		id := tr.begin(0, "client.predict")
		p, err := clients[t].Predict(r.ctx, td.batches[b])
		tr.end(id)
		if err == nil {
			err = td.want[b].matches(p)
		}
		if err != nil {
			mu.Lock()
			r.fail("%s batch %d: %v", td.name, b, err)
			mu.Unlock()
		}
		return err
	}
	account := func(st loopStats) {
		r.res.Attempted += len(st.lat)
		r.res.Failed += st.failed
	}

	open := r.measureFor(0.7)
	if r.traced {
		open = r.measureFor(0.35)
	}
	r.phase("open_loop", open.Seconds())
	r.phase("open_loop_rate", rate)
	mem := watchRSS(cl.pids()...)
	var untraced loopStats
	r.untraced(func() { untraced = openLoop(r.ctx, rate, open, conns, send) })
	account(untraced)
	r.setMedian("latency_p50_ms", "ms", untraced.lat)
	r.set("latency_p90_ms", "ms", percentile(untraced.lat, 90), len(untraced.lat))
	r.reportOpenLoop("client", untraced)

	if !r.traced {
		capacity := r.measureFor(0.3)
		r.phase("closed_loop", capacity.Seconds())
		var st loopStats
		r.untraced(func() { st = closedLoop(r.ctx, capacity, conns, send) })
		account(st)
		r.set("capacity_rows_per_s", "rows/s", float64(batchRows*len(st.lat))/st.took.Seconds(), len(st.lat))
		r.set("capacity_p50_ms", "ms", median(st.lat), len(st.lat))
	}
	samples, err := mem.close()
	if err != nil {
		return err
	}
	r.set("mem_high_mb", "MB", percentile(samples, 90), len(samples))
	if r.traced {
		if err := r.tracedServing(cl, hc, data, rate, open, send, traced, account); err != nil {
			return err
		}
	}

	rss, err := cl.stop()
	if err != nil {
		r.fail("stopping the fleet: %v", err)
	}
	r.set("serve.peak_rss_mb", "MB", rss, len(cl.nodes)+1)
	return nil
}

// startFleet starts two registry nodes, publishes every tenant to both and
// puts crrrouter in front, returning once the router sees both nodes up.
func startFleet(r *run, hc *http.Client, data []*tenantData) (*fleet, error) {
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	for n := 0; n < 2; n++ {
		dir := filepath.Join(r.work, fmt.Sprintf("registry%d", n))
		if err := os.RemoveAll(dir); err != nil {
			return fail(err)
		}
		node, err := startChild(r.ctx, r.bin, "crrserve", "-registry", dir, "-addr", "127.0.0.1:0", "-drain-notice", "0")
		if err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, node)
		for _, td := range data {
			if err := publish(r.ctx, hc, node.url, td.name, td.artifact); err != nil {
				return fail(err)
			}
		}
	}
	router, err := startChild(r.ctx, r.bin, "crrrouter", "-addr", "127.0.0.1:0",
		"-node", "n1="+f.nodes[0].url, "-node", "n2="+f.nodes[1].url)
	if err != nil {
		return fail(err)
	}
	f.router = router
	if err := waitHealthy(r.ctx, hc, router.url, func(h health) bool { return h.NodesUp == 2 }); err != nil {
		return fail(err)
	}
	return f, nil
}

// reportOpenLoop records the tail and the generator's lateness of an open
// loop under prefix.
func (r *run) reportOpenLoop(prefix string, st loopStats) {
	r.set(prefix+".predict_p99_ms", "ms", percentile(st.lat, 99), len(st.lat))
	r.set(prefix+".samples", "count", float64(len(st.lat)), len(st.lat))
	if p, ok := tailPercentile(len(st.lat)); ok {
		r.set(prefix+".tail_percentile", "%", p, len(st.lat))
		r.set(prefix+".tail_ms", "ms", percentile(st.lat, p), len(st.lat))
	}
	r.set(prefix+".late_ms_p50", "ms", median(st.late), len(st.late))
	r.set(prefix+".late_ms_max", "ms", percentile(st.late, 100), len(st.late))
}

// tracedServing is the traced half of predict-routed-1k: the same open
// loop, every other block of requests in spans, with /metrics and /proc readings
// around it; a paired probe of the router hop; and offline replays of the
// layer calls on the exact bytes of one request.
func (r *run) tracedServing(cl *fleet, hc *http.Client, data []*tenantData,
	rate float64, open time.Duration, send func(int) error, traced func(int) bool, account func(loopStats)) error {
	procs := append([]*child{cl.router}, cl.nodes...)
	before, cpuBefore, err := readFleet(r.ctx, hc, procs)
	if err != nil {
		return err
	}
	st := openLoop(r.ctx, rate, open, conns, send)
	account(st)
	after, cpuAfter, err := readFleet(r.ctx, hc, procs)
	if err != nil {
		return err
	}
	var on, off []float64
	for i, l := range st.lat {
		if traced(i) {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	r.set("trace.overhead_pct", "%", 100*(median(on)/median(off)-1), len(st.lat))
	r.reportOpenLoop("client.traced", st)

	var reqs, handlerSum, busiest float64
	for n := range cl.nodes {
		b, a := before[n+1], after[n+1]
		reqs += delta(b, a, "crr_serve_predict_requests")
		handlerSum += delta(b, a, "crr_serve_predict_latency_sum")
		busiest = max(busiest, delta(b, a, "crr_serve_predict_requests"))
		for _, m := range []string{"shed", "timeouts", "reloads", "reload_errors"} {
			r.set(fmt.Sprintf("serve.node%d.%s", n+1, m), "count", delta(b, a, "crr_serve_"+m), 1)
		}
		r.set(fmt.Sprintf("serve.node%d.in_flight_max", n+1), "count", a["crr_serve_in_flight_max"], 1)
		r.set(fmt.Sprintf("serve.node%d.cpu_us_per_req", n+1), "us", ratio(float64(cpuAfter[n+1]-cpuBefore[n+1])/1e3, delta(b, a, "crr_serve_predict_requests")), 1)
	}
	handlerMS := 1e3 * ratio(handlerSum, reqs)
	r.set("serve.predict.handler_mean_ms", "ms", handlerMS, int(reqs))
	r.set("cluster.node_share_max", "ratio", ratio(busiest, reqs), int(reqs))
	for _, m := range []string{"forwards", "failovers", "quota_rejections", "upstream_errors"} {
		r.set("router."+m, "count", delta(before[0], after[0], "crr_router_"+m), 1)
	}
	r.set("router.cpu_us_per_req", "us", ratio(float64(cpuAfter[0]-cpuBefore[0])/1e3, float64(len(st.lat))), len(st.lat))

	// Router hop: the same request alternately through the router and
	// straight to the owning node (the SDK's shard-map routing), one
	// connection each.
	pairs := 1000
	if r.quick {
		pairs = 50
	}
	td := data[0]
	routed := client.New(cl.router.url, client.WithHTTPClient(httpClient(1)), client.WithFormat(client.FormatBinary), client.WithTenant(td.name))
	direct := client.New(cl.router.url, client.WithHTTPClient(httpClient(1)), client.WithFormat(client.FormatBinary),
		client.WithTenant(td.name), client.WithShardMap(time.Hour))
	probeBefore, err := scrape(r.ctx, hc, cl.router.url)
	if err != nil {
		return err
	}
	var viaRouter, viaNode []float64
	for i := 0; i < pairs; i++ {
		for _, side := range []struct {
			name string
			c    *client.Client
			out  *[]float64
		}{{"router.routed", routed, &viaRouter}, {"router.direct", direct, &viaNode}} {
			var p *client.Predictions
			var err error
			d := r.tr.do(0, side.name, func(int64) { p, err = side.c.Predict(r.ctx, td.batches[0]) })
			r.res.Attempted++
			if err == nil {
				err = td.want[0].matches(p)
			}
			if err != nil {
				r.res.Failed++
				r.fail("router probe %s: %v", side.name, err)
				return nil
			}
			*side.out = append(*side.out, ms(d))
		}
	}
	probeAfter, err := scrape(r.ctx, hc, cl.router.url)
	if err != nil {
		return err
	}
	if fw := delta(probeBefore, probeAfter, "crr_router_forwards"); fw != float64(pairs) {
		r.fail("router probe: the router forwarded %g requests for %d routed ones; direct requests must bypass it", fw, pairs)
	}
	hop := median(viaRouter) - median(viaNode)
	r.set("router.routed_p50_ms", "ms", median(viaRouter), pairs)
	r.set("router.direct_p50_ms", "ms", median(viaNode), pairs)
	r.set("router.hop_ms", "ms", hop, pairs)
	r.set("router.routed_over_direct", "ratio", median(viaRouter)/median(viaNode), pairs)

	n := 500
	if r.quick {
		n = 20
	}
	p, err := r.newProbe(cl.router.url, td.name, td.batches[0], td.rows[0], td.artifact, false)
	if err != nil {
		r.res.Failed++
		r.fail("replay probe: %v", err)
		return nil
	}
	if err := r.replay(n, p); err != nil {
		return err
	}
	r.set("classify_share_pct", "%", 100*median(r.layer["core.predict_view_ms"])/r.res.Metrics["latency_p50_ms"].Value, n)
	layers := 0.0
	for _, name := range []string{"wire.encode_batch_ms", "wire.decode_predictions_ms"} {
		layers += median(r.layer[name])
	}
	r.set("transport_ms", "ms", median(st.lat)-handlerMS-hop-layers, len(st.lat))
	return nil
}

// readFleet scrapes /metrics and reads the CPU counters of every process.
func readFleet(ctx context.Context, hc *http.Client, procs []*child) ([]map[string]float64, []time.Duration, error) {
	scrapes := make([]map[string]float64, len(procs))
	cpu := make([]time.Duration, len(procs))
	for i, p := range procs {
		var err error
		if scrapes[i], err = scrape(ctx, hc, p.url); err != nil {
			return nil, nil, err
		}
		if cpu[i], err = p.cpu(); err != nil {
			return nil, nil, err
		}
	}
	return scrapes, cpu, nil
}
