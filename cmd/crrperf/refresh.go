package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/stream"
	"github.com/crrlab/crr/pkg/client"
)

// refreshSizes are the constants of refresh-classify-64k.
type refreshSizes struct {
	feedRows   int     // tax rows mined for the artifact; the first window of them fills the maintainer
	window     int     // stream.Maintainer window
	batchRows  int     // rows per predict and check request
	ingestRate float64 // rows/s the stream arrives at
	tick       int     // rows appended per ingest tick
	refitEvery int     // rows between Refit (and, if anything changed, a push)
}

// The artifact of refresh-classify-64k: Tax ~ Salary under conditions on
// State and MaritalStatus, mined at a bias bound just above the generator's
// ±0.5 noise. That is 24 (state, status) cells, each exactly linear, which
// compaction folds into 4 rules of shared slopes. A stream of fresh rows
// from the same generator keeps every rule alive.
var (
	refreshConfig = core.DiscoverConfig{XAttrs: []int{0}, YAttr: 4, RhoM: 1}
	refreshConds  = []int{1, 2}
)

// refreshAlpha is the maintainer's Chow-test significance level. At the
// default 0.001, the ~3,600 refits of a run's million stationary rows
// retired one to all four rules by chance (seeds 1–3); at 1e-6 none.
const refreshAlpha = 1e-6

// runRefresh is refresh-classify-64k: one client alternates 65,536-row
// binary predict and check requests straight to a crrserve node, while a
// stream.Maintainer in this process ingests 50,000 fresh rows/s and pushes
// every changed rule set with /v1/reload. Reads measure bulk classification
// against the live rule set and wire decode/encode; the writes hot-swap the
// rules under them.
func runRefresh(r *run) error {
	sz := refreshSizes{feedRows: 16384, window: 8192, batchRows: 65536, ingestRate: 50000, tick: 500, refitEvery: 2500}
	if r.quick {
		sz = refreshSizes{feedRows: 4096, window: 2048, batchRows: 4096, ingestRate: 10000, tick: 100, refitEvery: 500}
	}
	hc := httpClient(conns)
	defer hc.CloseIdleConnections()
	var (
		feed     *dataset.Relation
		artifact []byte
		node     *child
		maint    *stream.Maintainer
		batchRel *dataset.Relation
	)
	path := filepath.Join(r.work, "refresh-rules.json")
	teardown, err := r.setUp(func() (func(), error) {
		cfg := dataset.DefaultTaxConfig()
		cfg.Rows, cfg.Seed = sz.feedRows, r.seed
		feed = dataset.GenerateTax(cfg)
		var err error
		artifact, err = r.discoverArtifact(feed, refreshConfig, refreshConds, predicate.GeneratorConfig{})
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, artifact, 0o644); err != nil {
			return nil, err
		}
		n, err := startChild(r.ctx, r.bin, "crrserve", "-rules", path, "-addr", "127.0.0.1:0", "-drain-notice", "0")
		if err != nil {
			return nil, err
		}
		node = n
		if err := waitHealthy(r.ctx, hc, n.url, func(h health) bool { return h.Status == "ok" }); err != nil {
			n.stop()
			return nil, err
		}
		rules, err := core.ReadRuleSet(bytes.NewReader(artifact))
		if err != nil {
			n.stop()
			return nil, err
		}
		if maint, err = stream.New(rules, stream.Config{Window: sz.window, RhoM: refreshConfig.RhoM, Alpha: refreshAlpha}); err != nil {
			n.stop()
			return nil, err
		}
		for i := 0; i < sz.window; i++ {
			if err := maint.Append(feed.Tuples[i]); err != nil {
				n.stop()
				return nil, err
			}
		}
		bcfg := dataset.DefaultTaxConfig()
		bcfg.Rows, bcfg.Seed = sz.batchRows, 1<<30+r.seed
		batchRel = dataset.GenerateTax(bcfg)
		return func() { n.stop() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	defer os.Remove(path)
	sum := sha256.Sum256(artifact)
	r.res.RulesSHA = hex.EncodeToString(sum[:])
	batch, err := cliutil.ClientBatch(batchRel)
	if err != nil {
		return err
	}
	c := client.New(node.url, client.WithHTTPClient(hc), client.WithFormat(client.FormatBinary))
	rf := &refresher{r: r, sz: sz, maint: maint, c: c, last: artifact}

	untracedLen := r.measureFor(1)
	if r.traced {
		untracedLen = r.measureFor(0.5)
	}
	r.phase("mixed", untracedLen.Seconds())
	r.phase("ingest_rows_per_s", sz.ingestRate)
	mem := watchRSS(node.cmd.Process.Pid)
	var reads readStats
	r.untraced(func() { reads = rf.mixed(untracedLen, batch) })
	samples, err := mem.close()
	if err != nil {
		return err
	}
	r.set("mem_high_mb", "MB", percentile(samples, 90), len(samples))
	r.setMedian("latency_p50_ms", "ms", reads.round)
	r.set("latency_p90_ms", "ms", percentile(reads.round, 90), len(reads.round))
	r.set("read_rows_per_s", "rows/s", float64(2*sz.batchRows*len(reads.round))/reads.took.Seconds(), len(reads.round))
	rf.report("", reads)

	if r.traced {
		before, err := scrape(r.ctx, hc, node.url)
		if err != nil {
			return err
		}
		cpu0, err := node.cpu()
		if err != nil {
			return err
		}
		tracedLen := r.measureFor(0.4)
		r.phase("traced_mixed", tracedLen.Seconds())
		traced := rf.mixed(tracedLen, batch)
		after, err := scrape(r.ctx, hc, node.url)
		if err != nil {
			return err
		}
		cpu1, err := node.cpu()
		if err != nil {
			return err
		}
		rf.report("traced.", traced)
		r.set("trace.overhead_pct", "%", 100*(median(traced.parity[0])/median(traced.parity[1])-1), len(traced.round))
		reqs := 0.0
		for _, ep := range []string{"predict", "check"} {
			n := delta(before, after, "crr_serve_"+ep+"_requests")
			reqs += n
			r.set("serve."+ep+".handler_mean_ms", "ms",
				1e3*ratio(delta(before, after, "crr_serve_"+ep+"_latency_sum"), n), int(n))
		}
		r.set("serve.cpu_us_per_req", "us", ratio(float64(cpu1-cpu0)/1e3, reqs), int(reqs))
		for _, m := range []string{"shed", "timeouts", "reloads", "reload_errors"} {
			r.set("serve."+m, "count", delta(before, after, "crr_serve_"+m), 1)
		}
		r.set("serve.in_flight_max", "count", after["crr_serve_in_flight_max"], 1)
		st := maint.Stats()
		for name, v := range map[string]uint64{
			"stream.refits": st.Refits, "stream.drift_events": st.DriftEvents, "stream.retires": st.Retires,
			"stream.rebuilds": st.Rebuilds, "stream.swaps": st.Swaps,
		} {
			r.set(name, "count", float64(v), 1)
		}
	}

	// After ingestion stops, the node must answer exactly as the last
	// pushed rule set does in process, at the generation the pushes imply.
	r.set("stream.live_rules", "count", float64(maint.Live()), 1)
	p, err := rf.verifyFinal(hc, node.url, batch, dataset.NewColumnSet(batchRel))
	if err != nil {
		r.res.Failed++
		r.fail("%v", err)
	} else if r.traced {
		n := 50
		if r.quick {
			n = 5
		}
		if err := r.replay(n, p); err != nil {
			return err
		}
		classify := median(r.layer["core.predict_view_ms"]) + median(r.layer["core.violations_ms"])
		r.set("classify_share_pct", "%", 100*classify/r.res.Metrics["latency_p50_ms"].Value, n)
	}
	rss, err := node.stop()
	if err != nil {
		r.fail("stopping crrserve: %v", err)
	}
	r.set("serve.peak_rss_mb", "MB", rss, 1)
	return nil
}

// refresher drives the mixed phase of refresh-classify-64k and carries the
// stream state from one phase to the next.
type refresher struct {
	r     *run
	sz    refreshSizes
	maint *stream.Maintainer
	c     *client.Client

	mu     sync.Mutex        // guards r.res between the reader and the ingest loop
	next   int               // stream rows ingested so far
	chunk  *dataset.Relation // the stream rows of the current refit interval
	pushes int               // rule sets pushed with /v1/reload
	last   []byte            // last artifact the node was given
}

// readStats is what one mixed phase measured.
type readStats struct {
	round, predict, check []float64    // ms
	parity                [2][]float64 // round times of even (traced) and odd (untraced) rounds
	refresh               []float64    // ms from the due time of an interval's last row to the reload's answer
	ingestLate            float64      // ms, the latest an ingest tick started after it was due
	took                  time.Duration
}

// mixed runs one phase: a closed loop of predict+check rounds on batch
// while the stream arrives on its open-loop schedule. The phase ends when
// the last tick due within d has been ingested.
func (rf *refresher) mixed(d time.Duration, batch *client.Batch) readStats {
	r := rf.r
	var st readStats
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-done:
				return
			default:
			}
			tr := r.tr
			if k%2 == 1 {
				tr = nil // odd rounds stay untraced: the baseline of trace.overhead_pct
			}
			start := time.Now()
			var p *client.Predictions
			var rep *client.CheckReport
			var perr, cerr error
			pd := tr.do(0, "client.predict", func(int64) { p, perr = rf.c.Predict(r.ctx, batch) })
			cd := tr.do(0, "client.check", func(int64) { rep, cerr = rf.c.Check(r.ctx, batch) })
			round := time.Since(start)
			rf.mu.Lock()
			r.res.Attempted += 2
			switch {
			case perr != nil || cerr != nil:
				r.res.Failed++
				r.fail("read round: predict %v, check %v", perr, cerr)
			case len(p.Values) != rf.sz.batchRows || rep.Checked != rf.sz.batchRows:
				r.res.Failed++
				r.fail("read round: %d predictions and %d checked for %d rows", len(p.Values), rep.Checked, rf.sz.batchRows)
			}
			st.round = append(st.round, ms(round))
			st.parity[k%2] = append(st.parity[k%2], ms(round))
			st.predict = append(st.predict, ms(pd))
			st.check = append(st.check, ms(cd))
			rf.mu.Unlock()
		}
	}()

	ticks := int(d.Seconds() * rf.sz.ingestRate / float64(rf.sz.tick))
	interval := time.Duration(float64(rf.sz.tick) / rf.sz.ingestRate * float64(time.Second))
	start := time.Now()
	for k := 0; k < ticks && r.ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		sleepUntil(due)
		st.ingestLate = max(st.ingestLate, ms(time.Since(due)))
		if err := rf.ingest(due); err != nil {
			rf.mu.Lock()
			r.res.Failed++
			r.fail("ingest: %v", err)
			rf.mu.Unlock()
			break
		}
		if rt := rf.refreshAfter(due); rt > 0 {
			st.refresh = append(st.refresh, ms(rt))
		}
	}
	close(done)
	wg.Wait()
	st.took = time.Since(start)
	return st
}

// ingest appends one tick of rows to the maintainer. The stream is fresh
// rows from the artifact's generator: interval k of refitEvery rows is
// generated, untimed, when its first tick is due, from a seed derived from
// the run's seed and k, so a seed always streams the same rows.
func (rf *refresher) ingest(due time.Time) error {
	r := rf.r
	if rf.next%rf.sz.refitEvery == 0 {
		cfg := dataset.DefaultTaxConfig()
		cfg.Rows, cfg.Seed = rf.sz.refitEvery, 1<<40+r.seed<<20+int64(rf.next/rf.sz.refitEvery)
		rf.chunk = dataset.GenerateTax(cfg)
	}
	var err error
	d := r.tr.do(0, "stream.append", func(int64) {
		for i := 0; i < rf.sz.tick && err == nil; i++ {
			err = rf.maint.Append(rf.chunk.Tuples[rf.next%rf.sz.refitEvery])
			rf.next++
		}
	})
	r.observe("stream.append_us_per_1k", "us", float64(d.Microseconds())*1000/float64(rf.sz.tick))
	return err
}

// refreshAfter runs Refit when the tick just ingested closes an interval
// and pushes the rule set if anything changed. It returns the time from
// due, when the interval's last row was due, to the node's answer, or 0
// when nothing was pushed.
func (rf *refresher) refreshAfter(due time.Time) time.Duration {
	r := rf.r
	if rf.next%rf.sz.refitEvery != 0 {
		return 0
	}
	r.observe("stream.refit_ms", "ms", ms(r.tr.do(0, "stream.refit", func(int64) { rf.maint.Refit() })))
	if !rf.maint.Changed() {
		return 0
	}
	var snap *core.RuleSet
	r.observe("stream.snapshot_ms", "ms", ms(r.tr.do(0, "stream.snapshot", func(int64) { snap = rf.maint.Snapshot() })))
	art, _, err := r.artifact(0, snap)
	if err == nil {
		var d time.Duration
		d = r.tr.do(0, "serve.reload", func(int64) { _, err = rf.c.Reload(r.ctx, bytes.NewReader(art)) })
		r.observe("serve.reload_ms", "ms", ms(d))
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.fail("push: %v", err)
		return 0
	}
	rf.pushes++
	rf.last = art
	return time.Since(due)
}

// report records a mixed phase's per-endpoint and refresh numbers under
// prefix.
func (rf *refresher) report(prefix string, st readStats) {
	r := rf.r
	for name, xs := range map[string][]float64{"predict": st.predict, "check": st.check, "refresh": st.refresh} {
		if len(xs) == 0 {
			continue
		}
		r.set(prefix+name+"_p50_ms", "ms", median(xs), len(xs))
		r.set(prefix+name+"_p90_ms", "ms", percentile(xs, 90), len(xs))
	}
	r.set(prefix+"stream.ingest_late_ms_max", "ms", st.ingestLate, 1)
	r.set(prefix+"stream.pushes", "count", float64(rf.pushes), 1)
}

// verifyFinal holds one predict and one check of the node to the last
// pushed rule set in process (see newProbe), and the node's generation to
// the number of pushes. It returns the probe for the replays.
func (rf *refresher) verifyFinal(hc *http.Client, url string, batch *client.Batch, cs *dataset.ColumnSet) (*probe, error) {
	r := rf.r
	p, err := r.newProbe(url, "", batch, cs, rf.last, true)
	if err != nil {
		return nil, fmt.Errorf("final answers against the last pushed rules: %w", err)
	}
	var h health
	if err := getJSON(r.ctx, hc, url+"/healthz", &h); err != nil {
		return nil, err
	}
	if h.Generation != uint64(1+rf.pushes) {
		return nil, fmt.Errorf("node generation %d after %d pushes, want %d", h.Generation, rf.pushes, 1+rf.pushes)
	}
	return p, nil
}
