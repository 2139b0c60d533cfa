package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/crrlab/crr/internal/colstore"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/telemetry"
)

// timedLattice is core.LatticeStrategy behind a timer. It keeps the
// lattice's name and output, so a traced discovery is the same discovery,
// and records Induce as a core.induce span.
type timedLattice struct {
	tr     *tracer
	parent int64
	took   time.Duration
}

func (s *timedLattice) Name() string { return core.LatticeStrategy{}.Name() }

func (s *timedLattice) Induce(ctx context.Context, sub *core.Substrate) (res *core.DiscoverResult, err error) {
	s.took = s.tr.do(s.parent, "core.induce", func(int64) {
		res, err = core.LatticeStrategy{}.Induce(ctx, sub)
	})
	return res, err
}

// discover runs one sequential lattice discovery through call, which is
// core.Discover or core.DiscoverColumns bound to its data. A traced run
// also attaches a telemetry registry and the induce timer, and turns what
// they saw into per-layer observations.
func (r *run) discover(parent int64, rows int, cfg core.DiscoverConfig,
	call func(...core.DiscoverOption) (*core.DiscoverResult, error)) (*core.DiscoverResult, error) {
	if !r.traced {
		return call(core.WithConfig(cfg))
	}
	reg := telemetry.New()
	cfg.Telemetry = reg
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res *core.DiscoverResult
	var err error
	var induce *timedLattice
	total := r.tr.do(parent, "core.discover", func(id int64) {
		induce = &timedLattice{tr: r.tr, parent: id}
		cfg.Strategy = induce
		res, err = call(core.WithConfig(cfg))
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	fit := snap.Durations[telemetry.MetricTrainTime]
	share := snap.Durations[telemetry.MetricShareTestTime]
	r.observe("core.prep_ms", "ms", ms(total-induce.took))
	r.observe("core.induce_ms", "ms", ms(induce.took))
	r.observe("core.search_ms", "ms", ms(induce.took-fit.Total-share.Total))
	r.observe("core.alloc_bytes_per_row", "B/row", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(rows))
	r.observe("core.mallocs", "count", float64(m1.Mallocs-m0.Mallocs))
	r.observe("regress.fit_ms", "ms", ms(fit.Total))
	r.observe("regress.fit_count", "count", float64(fit.Count))
	r.observe("regress.share_scan_ms", "ms", ms(share.Total))
	r.observe("regress.share_scan_count", "count", float64(share.Count))
	r.observe("columns.build_ms", "ms", float64(snap.Counters[telemetry.MetricColumnsBuild])/1e6)
	r.observe("filter.rows_scanned", "count", float64(snap.Counters[telemetry.MetricFilterRowsScanned]))
	r.observe("filter.selectivity_mean", "ratio", snap.Distributions[telemetry.MetricFilterSelectivity].Mean())
	for _, name := range []string{
		telemetry.MetricConditionsExpanded, telemetry.MetricModelsTrained, telemetry.MetricModelsShared,
		telemetry.MetricShareTests, telemetry.MetricStatReuse, telemetry.MetricCacheHits,
	} {
		r.observe(name, "count", float64(snap.Counters[name]))
	}
	r.observe("discover.queue_depth_max", "count", snap.Gauges[telemetry.MetricQueueDepth].Max)
	r.observe("discover.share_hit_ratio", "ratio", ratio(
		float64(snap.Counters[telemetry.MetricModelsShared]), float64(snap.Counters[telemetry.MetricShareTests])))
	return res, nil
}

// compact runs Algorithm 2 with the exact model tolerance, as crrdiscover
// -compact does.
func (r *run) compact(parent int64, rules *core.RuleSet) (*core.RuleSet, error) {
	var reg *telemetry.Registry
	if r.traced {
		reg = telemetry.New()
	}
	var out *core.RuleSet
	var err error
	d := r.tr.do(parent, "core.compact", func(int64) {
		out, _, err = core.CompactCtx(r.ctx, rules, core.CompactOptions{Telemetry: reg})
	})
	if err != nil {
		return nil, err
	}
	r.observe("core.compact_ms", "ms", ms(d))
	snap := reg.Snapshot()
	for _, name := range []string{
		telemetry.MetricTranslations, telemetry.MetricFusions, telemetry.MetricImplied, telemetry.MetricSolverAttempts,
	} {
		r.observe(name, "count", float64(snap.Counters[name]))
	}
	r.observe("compact.useful_ratio", "ratio", ratio(
		float64(snap.Counters[telemetry.MetricTranslations]+snap.Counters[telemetry.MetricFusions]),
		float64(snap.Counters[telemetry.MetricSolverAttempts])))
	return out, nil
}

// artifact serializes rules as crrdiscover -save writes them and returns the
// bytes with their sha256.
func (r *run) artifact(parent int64, rules *core.RuleSet) ([]byte, string, error) {
	var buf bytes.Buffer
	var err error
	d := r.tr.do(parent, "core.write_ruleset", func(int64) { err = core.WriteRuleSet(&buf, rules) })
	if err != nil {
		return nil, "", err
	}
	r.observe("core.write_ruleset_ms", "ms", ms(d))
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// mine runs what every discovery here shares: Algorithm 1 through call,
// Algorithm 2, and the artifact. It returns the discovered (uncompacted)
// result with the compacted artifact and its sha256.
func (r *run) mine(parent int64, rows int, cfg core.DiscoverConfig,
	call func(...core.DiscoverOption) (*core.DiscoverResult, error)) (*core.DiscoverResult, []byte, string, error) {
	res, err := r.discover(parent, rows, cfg, call)
	if err != nil {
		return nil, nil, "", err
	}
	rules, err := r.compact(parent, res.Rules)
	if err != nil {
		return nil, nil, "", err
	}
	art, sha, err := r.artifact(parent, rules)
	return res, art, sha, err
}

// checkRules holds the rules Algorithm 1 discovered to what it guarantees
// on its own input: every row with non-null X and Y is covered, and no row
// breaks the bias bound of the first rule covering it. Compacted rules are
// held to their sha256 only: on the 2M-row electricity store, Algorithm 2's
// output puts one row under a rule whose bound it exceeds by 0.0013, while
// the discovered rules hold everywhere (see README.md).
func (r *run) checkRules(cs *dataset.ColumnSet, rules *core.RuleSet) {
	var covered []bool
	var vs []core.Violation
	id := r.tr.begin(0, "check")
	pv := r.tr.do(id, "core.predict_view", func(int64) { _, covered = rules.PredictView(cs.View()) })
	vt := r.tr.do(id, "core.violations", func(int64) { vs = core.ViolationsColumns(cs, rules) })
	r.tr.end(id)
	r.observe("core.predict_view_ms", "ms", ms(pv))
	r.observe("core.violations_ms", "ms", ms(vt))
	if len(vs) > 0 {
		r.fail("discovered rules have %d violations on their own input (first: row %d, rule %d)",
			len(vs), vs[0].TupleIndex, vs[0].RuleIndex)
	}
	for row, ok := range covered {
		if ok || cs.IsNull(rules.YAttr, row) {
			continue
		}
		trainable := true
		for _, a := range rules.XAttrs {
			trainable = trainable && !cs.IsNull(a, row)
		}
		if trainable {
			r.fail("row %d has non-null X and Y but no rule covers it", row)
			return
		}
	}
}

// passFunc runs one measured discovery pass over input j and returns the
// sha256 of the rules it produced and the pass's wall time. With check set
// it then holds the rules to the input, outside the timed part.
type passFunc func(j int, check bool) (sha string, took time.Duration, err error)

// discoveryLoop drives passes back to back, round robin over inputs. The
// untraced phase takes the whole run (-trace 0) or its first quarter
// (-trace 1); a traced run then makes tracedPasses traced passes, each
// paired with an untraced one. Every pass of an input must produce
// byte-identical rules, traced or not.
func (r *run) discoveryLoop(inputs, rows, tracedPasses int, pass passFunc) error {
	shas := make([]string, inputs)
	record := func(j int, sha string) {
		r.res.Attempted++
		switch {
		case shas[j] == "":
			shas[j] = sha
		case sha != shas[j]:
			r.res.Failed++
			r.fail("input %d: pass produced rules %s, earlier pass %s", j, sha, shas[j])
		}
	}
	heap := watchHeap()
	defer heap.close()

	share := 1.0
	if r.traced {
		share = 0.25
	}
	phase := r.measureFor(share)
	r.phase("passes", phase.Seconds())
	var times, peaks []float64
	var err error
	r.untraced(func() {
		start := time.Now()
		for i := 0; i < inputs || time.Since(start) < phase; i++ {
			j := i % inputs
			runtime.GC()
			heap.reset()
			var sha string
			var took time.Duration
			sha, took, err = pass(j, shas[j] == "")
			peak := heap.reset()
			if err != nil {
				return
			}
			record(j, sha)
			times = append(times, ms(took))
			peaks = append(peaks, float64(peak)/1e6)
		}
	})
	if err != nil {
		return err
	}
	total := 0.0
	for _, t := range times {
		total += t
	}
	r.setMedian("latency_p50_ms", "ms", times)
	r.set("latency_p90_ms", "ms", percentile(times, 90), len(times))
	r.set("rows_per_s", "rows/s", float64(rows*len(times))/(total/1e3), len(times))
	r.setMedian("mem_high_mb", "MB", peaks)

	if r.traced {
		// Each traced pass is paired with an untraced pass of the same input,
		// so the overhead compares passes a moment apart; the pair's order
		// alternates so that neither side always runs first. Both passes
		// check their rules, so both follow the same work: a check leaves
		// garbage and cold pages that slow whatever runs next.
		checked := func(j int) (d time.Duration, err error) {
			runtime.GC()
			var sha string
			if sha, d, err = pass(j, true); err == nil {
				record(j, sha)
			}
			return d, err
		}
		r.phase("traced_passes", float64(tracedPasses))
		var overhead, coverage []float64
		for i := 0; i < tracedPasses; i++ {
			j := i % inputs
			before := len(r.tr.snapshot())
			var took, plain time.Duration
			for k := 0; k < 2; k++ {
				if (i+k)%2 == 0 {
					took, err = checked(j)
				} else {
					r.untraced(func() { plain, err = checked(j) })
				}
				if err != nil {
					return err
				}
			}
			overhead = append(overhead, 100*(float64(took)/float64(plain)-1))
			spans := r.tr.snapshot()[before:]
			self := selfTimes(spans)
			for _, s := range spans {
				if s.Name == "pass" {
					coverage = append(coverage, 100*(1-float64(self[s.ID])/float64(s.dur())))
				}
			}
		}
		r.setMedian("trace.overhead_pct", "%", overhead)
		r.setMedian("trace.coverage_pct", "%", coverage)
	}

	if inputs == 1 {
		r.res.RulesSHA = shas[0]
	} else {
		sum := sha256.Sum256([]byte(strings.Join(shas, "\n")))
		r.res.RulesSHA = hex.EncodeToString(sum[:])
	}
	return nil
}

// untraced runs fn with tracing switched off, for the untraced phase of a
// traced run.
func (r *run) untraced(fn func()) {
	tr, traced := r.tr, r.traced
	r.tr, r.traced = nil, false
	defer func() { r.tr, r.traced = tr, traced }()
	fn()
}

// runAirQuality is discover-airquality: Algorithm 1 then Algorithm 2 over
// in-memory AirQuality relations with the paper's default predicate space
// (a cut at every distinct Time value). Passes cycle over four generated
// relations so a run's median does not hang on one draw of the noise.
func runAirQuality(r *run) error {
	rows, inputs := 8000, 4
	if r.quick {
		rows, inputs = 1000, 2
	}
	var rels []*dataset.Relation
	teardown, err := r.setUp(func() (func(), error) {
		rels = make([]*dataset.Relation, inputs)
		for j := range rels {
			cfg := dataset.DefaultAirQualityConfig()
			cfg.Rows, cfg.Seed = rows, r.seed*int64(inputs)+int64(j)
			rels[j] = dataset.GenerateAirQuality(cfg)
		}
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	r.phase("rows", float64(rows))
	r.phase("inputs", float64(inputs))

	pass := func(j int, check bool) (string, time.Duration, error) {
		rel := rels[j]
		start := time.Now()
		id := r.tr.begin(0, "pass")
		var preds []predicate.Predicate
		d := r.tr.do(id, "predicate.generate", func(int64) {
			preds = predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{})
		})
		r.observe("predicate.generate_ms", "ms", ms(d))
		res, _, sha, err := r.mine(id, rel.Len(), core.DiscoverConfig{
			XAttrs: []int{0}, YAttr: 1, RhoM: 1.0, Preds: preds,
		}, func(opts ...core.DiscoverOption) (*core.DiscoverResult, error) {
			return core.Discover(r.ctx, rel, opts...)
		})
		if err != nil {
			return "", 0, err
		}
		r.tr.end(id)
		took := time.Since(start)
		if check {
			r.checkRules(dataset.NewColumnSet(rel), res.Rules)
		}
		return sha, took, nil
	}
	return r.discoveryLoop(inputs, rows, inputs, pass)
}

// runOOC is discover-ooc-electricity: each pass maps an on-disk electricity
// column store, verifies its checksums, generates 16 binary predicates and
// mines it through DiscoverColumns, with no relation in memory. The search
// is small (17 nodes); selection scans and their allocations carry the
// time.
func runOOC(r *run) error {
	rows, chunk := 2_000_000, colstore.DefaultChunkRows
	if r.quick {
		rows, chunk = 40_000, 4096
	}
	dir := filepath.Join(r.work, "ooc-store")
	teardown, err := r.setUp(func() (func(), error) {
		var err error
		d := r.tr.do(0, "colstore.build", func(int64) { err = buildElectricityStore(dir, rows, chunk, r.seed) })
		r.observe("colstore.build_s", "s", d.Seconds())
		return func() { os.RemoveAll(dir) }, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	r.phase("rows", float64(rows))

	pass := func(_ int, check bool) (string, time.Duration, error) {
		var reg *telemetry.Registry
		if r.traced {
			reg = telemetry.New()
		}
		start := time.Now()
		id := r.tr.begin(0, "pass")
		var st *colstore.Store
		var err error
		d := r.tr.do(id, "colstore.open", func(int64) {
			st, err = colstore.OpenWith(dir, colstore.OpenOptions{Telemetry: reg})
		})
		if err != nil {
			return "", 0, err
		}
		defer st.Close()
		r.observe("colstore.open_ms", "ms", ms(d))
		d = r.tr.do(id, "colstore.verify", func(int64) { err = st.Verify(r.ctx) })
		if err != nil {
			return "", 0, err
		}
		r.observe("colstore.verify_ms", "ms", ms(d))
		r.observe("colstore.bytes_mapped", "B", float64(reg.Counter(telemetry.MetricColstoreBytesMapped).Value()))
		var preds []predicate.Predicate
		d = r.tr.do(id, "predicate.generate", func(int64) {
			preds = predicate.GenerateColumns(st.Columns(), []int{0}, predicate.GeneratorConfig{Kind: predicate.Binary, Size: 16})
		})
		r.observe("predicate.generate_ms", "ms", ms(d))
		res, _, sha, err := r.mine(id, rows, core.DiscoverConfig{
			XAttrs: []int{0}, YAttr: 1, RhoM: 0.5, Preds: preds,
		}, func(opts ...core.DiscoverOption) (*core.DiscoverResult, error) {
			return core.DiscoverColumns(r.ctx, st.Columns(), opts...)
		})
		if err != nil {
			return "", 0, err
		}
		r.tr.end(id)
		took := time.Since(start)
		if check {
			r.checkRules(st.Columns(), res.Rules)
		}
		return sha, took, nil
	}
	return r.discoveryLoop(1, rows, 3, pass)
}

// buildElectricityStore writes a rows-row electricity column store to dir
// the way crrgen -store does: chunk i is generated on its own, from a seed
// derived from seed and i, so memory stays one chunk whatever the size.
func buildElectricityStore(dir string, rows, chunk int, seed int64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	schema := dataset.GenerateElectricity(dataset.ElectricityConfig{Rows: 1, Seed: 1}).Schema
	b, err := colstore.NewBuilder(dir, schema, colstore.BuilderOptions{ChunkRows: chunk})
	if err != nil {
		return err
	}
	for i, written := 0, 0; written < rows; i++ {
		cfg := dataset.DefaultElectricityConfig()
		cfg.Rows, cfg.Seed = min(chunk, rows-written), seed<<20+int64(i)
		if err := b.AppendRelation(dataset.GenerateElectricity(cfg)); err != nil {
			b.Abort()
			return fmt.Errorf("build store: %w", err)
		}
		written += cfg.Rows
	}
	return b.Finish()
}
