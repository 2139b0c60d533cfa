package core

import (
	"container/heap"
	"context"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// QueueOrder selects how Algorithm 1's priority queue orders conjunctions by
// their sharing index ind(C) (§V-A3, Table IV).
type QueueOrder int

const (
	// Decrease pops the conjunction most likely to share an existing model
	// first — the paper's choice (Proposition 8).
	Decrease QueueOrder = iota
	// Increase pops the least likely first (Table IV's adversarial order).
	Increase
	// RandomOrder pops uniformly at random.
	RandomOrder
)

// String implements fmt.Stringer.
func (o QueueOrder) String() string {
	switch o {
	case Decrease:
		return "decrease"
	case Increase:
		return "increase"
	case RandomOrder:
		return "random"
	default:
		return "unknown"
	}
}

// DiscoverConfig parameterizes Algorithm 1 and is the one way to configure
// discovery: Discover and DiscoverColumns take it through WithConfig. Zero
// values select sane defaults (see Discover and Validate).
type DiscoverConfig struct {
	// XAttrs and YAttr define the regression signature f : X → Y. YAttr must
	// be numeric and must not appear in XAttrs (Reflexivity, Proposition 1).
	XAttrs []int
	YAttr  int
	// RhoM is the maximum bias ρ_M; non-positive selects DefaultMaxBias.
	RhoM float64
	// Preds is the predicate space ℙ; it must not mention YAttr
	// (Definition 1).
	Preds []predicate.Predicate
	// Trainer fits new models when no existing model can be shared; nil
	// selects OLS (family F1).
	Trainer regress.Trainer
	// Order is the ind(C) queue ordering; Decrease is the paper's default.
	Order QueueOrder
	// Seed drives RandomOrder.
	Seed int64
	// DisableSharing turns off Lines 7–10 (the ablation of §VI-B1); every
	// data part then trains its own model, like a plain regression tree.
	DisableSharing bool
	// FuseShared applies Fusion eagerly during search: a share hit extends
	// the existing rule of that model with the new conjunction (ℂ ∨ C∧(y=δ),
	// ρ = max) instead of emitting a separate rule. This is how "CRR
	// searching" in the paper's Fig. 9 returns fewer rules than a compacted
	// regression tree; Translation across distinct models still requires
	// Algorithm 2.
	FuseShared bool
	// MinSupport is the smallest part size still split further; parts at or
	// below it accept their model regardless of error, ensuring coverage
	// (§V-A2's VC-dimension floor). 0 means len(XAttrs)+2.
	MinSupport int
	// Workers is the number of workers popping the one ind(C) queue: 0
	// means 1, negative means runtime.NumCPU(). Only one worker is
	// deterministic, with bitwise-reproducible output; several race for
	// pops, so which model a part shares, and with it the rule set, can vary
	// run to run (see lattice).
	Workers int
	// Strategy selects the induction strategy run over the substrate; nil
	// selects the built-in lattice walk (Algorithm 1). The internal/induction
	// package contributes growprune.
	Strategy Strategy
	// Telemetry receives hot-path metrics (see internal/telemetry's metric
	// schema); nil disables instrumentation at zero cost.
	Telemetry *telemetry.Registry
}

// DiscoverStats reports the work Algorithm 1 performed.
type DiscoverStats struct {
	ModelsTrained int // Line 13 executions
	ShareHits     int // rules emitted through Lines 7–10
	NodesExpanded int // queue pops with a non-empty part
	ForcedRules   int // rules accepted at the MinSupport floor
}

// DiscoverResult carries the discovered Σ and its statistics.
type DiscoverResult struct {
	Rules *RuleSet
	Stats DiscoverStats
}

// Discover mines conditional regression rules from rel with Algorithm 1
// (CRR searching with model sharing). It is the single context-first
// entrypoint of the discovery engine: cancellation and deadlines on ctx are
// honored at every condition-queue pop (not just at entry), so long mines
// stop within one queue iteration and return an error matching both
// ErrCanceled and the context's own sentinel.
//
// The configuration is the DiscoverConfig passed with WithConfig; the
// variadic form stays because the benchmark (cmd/crrperf) calls it. Zero
// fields select sane defaults: OLS trainer, ρ_M = DefaultMaxBias, a
// paper-default predicate space generated over the X attributes plus every
// categorical attribute, and one worker. Workers > 1 runs that many workers
// over the same queue; Telemetry attaches hot-path metrics.
//
//	res, err := core.Discover(ctx, rel, core.WithConfig(core.DiscoverConfig{
//	    XAttrs: []int{salary}, YAttr: tax, RhoM: 60, Workers: 4, Telemetry: reg,
//	}))
func Discover(ctx context.Context, rel *dataset.Relation, opts ...DiscoverOption) (*DiscoverResult, error) {
	var cfg DiscoverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if rel == nil {
		return nil, ErrEmptyRelation
	}
	cols := buildColumns(rel, cfg.Telemetry)
	if err := applyDefaults(cols, &cfg); err != nil {
		return nil, err
	}
	return discoverFor(ctx, cols, cfg)
}

// DiscoverColumns mines conditional regression rules directly over a
// columnar substrate — the entrypoint for out-of-core discovery, where the
// ColumnSet is the adopted view of an mmap'd store (colstore.Store.Columns)
// and no Relation ever exists in memory. It takes the same configuration,
// in the same variadic form, as Discover and is exactly equivalent to it:
// Discover builds a ColumnSet from its relation and runs the same columnar
// engine over it.
func DiscoverColumns(ctx context.Context, cols *dataset.ColumnSet, opts ...DiscoverOption) (*DiscoverResult, error) {
	var cfg DiscoverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := applyDefaults(cols, &cfg); err != nil {
		return nil, err
	}
	return discoverFor(ctx, cols, cfg)
}

// buildColumns builds the run's ColumnSet from rel once, charging the build
// time to the columns.build_ns counter.
func buildColumns(rel *dataset.Relation, reg *telemetry.Registry) *dataset.ColumnSet {
	start := time.Now()
	cols := dataset.NewColumnSet(rel)
	reg.Counter(telemetry.MetricColumnsBuild).Add(time.Since(start).Nanoseconds())
	return cols
}

// applyDefaults fills cfg's open slots against the run's columns the way
// Discover promises — the paper-default predicate space over the X
// attributes plus every categorical attribute when ℙ is unset, then
// Validate's trainer and ρ_M defaulting — and rejects empty (or nil) inputs.
// Both entrypoints (Discover, DiscoverColumns) share it, so they accept the
// same minimal configurations.
func applyDefaults(cols *dataset.ColumnSet, cfg *DiscoverConfig) error {
	if cols == nil || cols.Len() == 0 {
		return ErrEmptyRelation
	}
	if cfg.Preds == nil {
		attrs := defaultPredicateAttrs(cols.Schema, cfg.XAttrs, cfg.YAttr)
		cfg.Preds = predicate.GenerateColumns(cols, attrs, predicate.GeneratorConfig{Seed: cfg.Seed})
	}
	if len(cfg.Preds) == 0 {
		return ErrNoPredicates
	}
	return cfg.Validate()
}

// discoverPrep checks cfg against the run's columns and builds the shared
// discovery prelude: effective MinSupport, the trainable row indices
// (rows whose X and Y cells are all non-null and finite — null rows are the
// imputation targets, not the training data, and a NaN or ±Inf cell can be
// neither fit nor checked) and the mean-of-Y fallback over them. cfg has been
// through applyDefaults, so only the column-dependent check is left: a
// numeric target.
func discoverPrep(cols *dataset.ColumnSet, cfg *DiscoverConfig) (all []int, fallback float64, err error) {
	if cols.Schema.Attr(cfg.YAttr).Kind != dataset.Numeric {
		return nil, 0, ErrNonNumericTarget
	}
	rows := cols.Len()
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = len(cfg.XAttrs) + 2
	}

	trainable := func(a, i int) bool {
		v := cols.Float(a)[i]
		return !cols.IsNull(a, i) && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	all = make([]int, 0, rows)
rows:
	for i := 0; i < rows; i++ {
		if !trainable(cfg.YAttr, i) {
			continue
		}
		for _, a := range cfg.XAttrs {
			if !trainable(a, i) {
				continue rows
			}
		}
		all = append(all, i)
	}
	if len(all) > 0 {
		var ysum float64
		ycol := cols.Float(cfg.YAttr)
		for _, i := range all {
			ysum += ycol[i]
		}
		fallback = ysum / float64(len(all))
	}
	return all, fallback, nil
}

// discTel holds the pre-resolved metric handles of one discovery run, so
// the hot loop pays one atomic op per event and nothing at all when no
// registry is attached (nil handles no-op).
type discTel struct {
	nodes, trained, shared, shareTests, forced *telemetry.Counter
	statReuse, cacheHits                       *telemetry.Counter
	rowsScanned                                *telemetry.Counter
	queueDepth                                 *telemetry.Gauge
	trainTime, shareTime                       *telemetry.Histogram
	scanWidth, filterSel                       *telemetry.Distribution
}

func newDiscTel(r *telemetry.Registry) discTel {
	return discTel{
		nodes:       r.Counter(telemetry.MetricConditionsExpanded),
		trained:     r.Counter(telemetry.MetricModelsTrained),
		shared:      r.Counter(telemetry.MetricModelsShared),
		shareTests:  r.Counter(telemetry.MetricShareTests),
		forced:      r.Counter(telemetry.MetricForcedRules),
		statReuse:   r.Counter(telemetry.MetricStatReuse),
		cacheHits:   r.Counter(telemetry.MetricCacheHits),
		rowsScanned: r.Counter(telemetry.MetricFilterRowsScanned),
		queueDepth:  r.Gauge(telemetry.MetricQueueDepth),
		trainTime:   r.Histogram(telemetry.MetricTrainTime),
		shareTime:   r.Histogram(telemetry.MetricShareTestTime),
		scanWidth:   r.Distribution(telemetry.MetricShareScanWidth),
		filterSel:   r.Distribution(telemetry.MetricFilterSelectivity),
	}
}

// lattice is LatticeStrategy's engine — Algorithm 1 (CRR searching with
// model sharing): a top-down refinement over conjunctions that first tries
// to share an existing model via the δ0 test of Proposition 6, trains a new
// model only when sharing fails, and splits the condition on the best
// variance-reducing predicate group from ℙ otherwise. Conjunctions are
// popped in the configured ind(C) order.
//
// Each of the workers pops an item, runs the hot loop on it outside the lock
// (hotpath.go) and publishes its rule, statistics and children under the
// lock. One worker runs on the caller's goroutine and is bitwise
// reproducible. With several, pops race, so which model a part shares, and
// with it the rule set, can vary run to run; every part is still processed
// exactly once, so Σ covers D and every rule holds on its part. Their rules
// are sorted by first conjunction at the end.
func lattice(ctx context.Context, sub *Substrate, workers int) (*DiscoverResult, error) {
	out := sub.NewResult()
	if len(sub.all) == 0 {
		return out, nil
	}
	hl := sub.hot()
	root := &condItem{conj: predicate.NewConjunction(), idxs: sub.all, gram: hl.rootGram(sub.all)}
	s := &search{
		cfg:    sub.cfg,
		tel:    sub.tel,
		out:    out,
		ruleOf: make(map[regress.Model]int),
		rng:    rand.New(rand.NewSource(sub.cfg.Seed)),
	}
	s.cond.L = &s.mu
	heap.Push(&s.q, root)
	if workers == 1 {
		s.work(ctx, hl.workspace(true))
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				s.work(ctx, hl.workspace(false))
			}()
		}
		wg.Wait()
	}
	if s.err != nil {
		return nil, s.err
	}
	if workers > 1 {
		sortRules(out.Rules.Rules)
	}
	return out, nil
}

// search is the state the workers of one lattice run share, all behind mu:
// the ind(C) queue, the model set F and the emitted rules with their
// statistics. Every split partitions its part, so the search is a partition
// tree of the trainable rows: queued items never share a row, and a run
// expands at most 2·|trainable| − 1 nodes.
type search struct {
	mu       sync.Mutex
	cond     sync.Cond // broadcast when an item finishes
	q        condQueue
	inflight int                   // items popped and not yet finished
	err      error                 // the first error; it stops every worker
	shared   []regress.Model       // F: empty at Line 2, then it only grows, by append
	ruleOf   map[regress.Model]int // FuseShared: the rule of each model
	rng      *rand.Rand            // RandomOrder priorities
	cfg      *DiscoverConfig
	tel      discTel
	out      *DiscoverResult
}

// work is one worker's loop. It returns once the queue is empty with no
// item in flight, or the run has failed.
func (s *search) work(ctx context.Context, ws *partWorkspace) {
	for {
		item, pool, ok := s.pop()
		if !ok {
			return
		}
		ev, err := s.expand(ctx, ws, item, pool)
		s.finish(item, ev, err)
		if err != nil {
			return
		}
	}
}

// pop takes the best queued item, waiting while the queue is empty but an
// item in flight may still add children. ok is false once the search is
// complete or has failed. pool is F as of the pop, a view capped at its
// length, so reading it is safe while F grows.
func (s *search) pop() (item *condItem, pool []regress.Model, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil {
		if s.q.Len() > 0 {
			item = heap.Pop(&s.q).(*condItem)
			s.inflight++
			s.out.Stats.NodesExpanded++
			n := len(s.shared)
			return item, s.shared[:n:n], true
		}
		if s.inflight == 0 {
			break
		}
		s.cond.Wait()
	}
	return nil, nil, false
}

// expand evaluates one popped item outside the lock.
func (s *search) expand(ctx context.Context, ws *partWorkspace, item *condItem, pool []regress.Model) (nodeEval, error) {
	// The cancellation point: a canceled or expired context stops every
	// worker within one queue iteration.
	if err := ctx.Err(); err != nil {
		return nodeEval{}, canceled(err)
	}
	s.tel.nodes.Inc()
	return ws.evaluate(item, pool)
}

// finish publishes one finished item under the lock: its rule, the
// statistics and its children, or the run's first error. The rule's
// condition is built before the lock is taken.
func (s *search) finish(item *condItem, ev nodeEval, err error) {
	// Refinement accumulates one predicate per split; normalizing collapses
	// them to minimal per-attribute bounds.
	var conj predicate.Conjunction
	switch {
	case err != nil:
	case ev.hit:
		// Lines 7–10: model sharing via the δ0 test.
		conj = item.conj.Clone()
		conj.Builtin = conj.Builtin.WithYShift(ev.share.Delta0)
		conj = conj.Normalize()
	case ev.accept:
		conj = item.conj.Normalize()
	}

	s.mu.Lock()
	st, tel := &s.out.Stats, s.tel
	switch {
	case err != nil:
		if s.err == nil {
			s.err = err
		}
	case ev.hit:
		st.ShareHits++
		tel.shared.Inc()
		s.emit(ev.model, ev.share.MaxErr, conj)
	case ev.accept:
		st.ModelsTrained++
		tel.trained.Inc()
		if ev.forced {
			st.ForcedRules++
			tel.forced.Inc()
		}
		s.emit(ev.model, ev.maxErr, conj)
		s.shared = append(s.shared, ev.model)
	default:
		st.ModelsTrained++
		tel.trained.Inc()
		// Lines 19–22: the children of a refined condition.
		for i := range ev.children {
			// A copy, so a finished sibling's rows are not kept alive.
			ch := ev.children[i]
			// Children carry the parent's ind(C) as queue priority (Line 22).
			ch.prio = ev.ind
			switch s.cfg.Order {
			case Increase:
				ch.prio = -ev.ind
			case RandomOrder:
				ch.prio = s.rng.Float64()
			}
			ch.seq = s.q.nextSeq()
			heap.Push(&s.q, &ch)
		}
	}
	s.inflight--
	tel.queueDepth.Set(float64(s.q.Len()))
	s.mu.Unlock()
	s.cond.Broadcast()
}

// emit appends a rule; under FuseShared a model that already has a rule
// extends it instead. Call with the lock held.
func (s *search) emit(model regress.Model, rho float64, conj predicate.Conjunction) {
	rules := s.out.Rules
	if s.cfg.FuseShared {
		if ri, ok := s.ruleOf[model]; ok {
			r := &rules.Rules[ri]
			r.Cond.Conjs = append(r.Cond.Conjs, conj)
			if rho > r.Rho {
				r.Rho = rho // Generalization before Fusion
			}
			return
		}
		s.ruleOf[model] = len(rules.Rules)
	}
	rules.Rules = append(rules.Rules, CRR{
		Model:  model,
		Rho:    rho,
		Cond:   predicate.NewDNF(conj),
		XAttrs: rules.XAttrs,
		YAttr:  s.cfg.YAttr,
	})
}

// sortRules orders rules stably by the key of their first conjunction,
// building each key once.
func sortRules(rules []CRR) {
	keys := make([]string, len(rules))
	for i := range rules {
		if conjs := rules[i].Cond.Conjs; len(conjs) > 0 {
			keys[i] = conjKey(conjs[0])
		}
	}
	sort.Stable(rulesByKey{rules, keys})
}

// rulesByKey sorts rules by keys, moving both together.
type rulesByKey struct {
	rules []CRR
	keys  []string
}

func (r rulesByKey) Len() int           { return len(r.rules) }
func (r rulesByKey) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r rulesByKey) Swap(i, j int) {
	r.rules[i], r.rules[j] = r.rules[j], r.rules[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
}

// childPart is one refinement C ∧ p with the tuple indices it selects.
type childPart struct {
	pred predicate.Predicate
	idxs []int
}

// splitIndex precomputes, once per discovery, the usable split structure of
// the predicate space ℙ: per numeric attribute its sorted cuts (usable when
// both the > and ≤ predicates exist, so children partition D_C) with the
// run's rank lane, and per-attribute categorical equality fans. It is built
// before any worker starts and is read-only afterwards, so workers share it.
type splitIndex struct {
	num       []numSplit // numeric attributes with usable cuts, by attribute
	buckets   int        // the most cut buckets any numeric attribute has
	catOrder  []int      // categorical attributes, sorted
	catPreds  map[int][]predicate.Predicate
	catValues map[int]map[string]bool
}

// numSplit is one numeric attribute's usable cuts and rank lane.
type numSplit struct {
	attr  int
	cuts  []float64 // ascending
	ranks []int32   // per row of the run's columns: see rankLane
}

// noRank marks a null or NaN cell in a rank lane: no cut pair selects it.
const noRank = -1

func newSplitIndex(preds []predicate.Predicate, cols *dataset.ColumnSet) *splitIndex {
	si := &splitIndex{
		catPreds:  make(map[int][]predicate.Predicate),
		catValues: make(map[int]map[string]bool),
	}
	gt := make(map[int]map[float64]bool)
	le := make(map[int]map[float64]bool)
	for _, p := range preds {
		if p.Categorical {
			if si.catValues[p.Attr] == nil {
				si.catValues[p.Attr] = make(map[string]bool)
			}
			if !si.catValues[p.Attr][p.Str] {
				si.catValues[p.Attr][p.Str] = true
				si.catPreds[p.Attr] = append(si.catPreds[p.Attr], p)
			}
			continue
		}
		switch p.Op {
		case predicate.Gt:
			if gt[p.Attr] == nil {
				gt[p.Attr] = make(map[float64]bool)
			}
			gt[p.Attr][p.Num] = true
		case predicate.Le:
			if le[p.Attr] == nil {
				le[p.Attr] = make(map[float64]bool)
			}
			le[p.Attr][p.Num] = true
		}
	}
	for a, les := range le {
		var cuts []float64
		for c := range les {
			if gt[a][c] {
				cuts = append(cuts, c)
			}
		}
		if len(cuts) > 0 {
			sort.Float64s(cuts)
			si.num = append(si.num, numSplit{attr: a, cuts: cuts, ranks: rankLane(cols, a, cuts)})
			si.buckets = max(si.buckets, len(cuts)+1)
		}
	}
	sort.Slice(si.num, func(i, j int) bool { return si.num[i].attr < si.num[j].attr })
	for a := range si.catPreds {
		si.catOrder = append(si.catOrder, a)
	}
	sort.Ints(si.catOrder)
	return si
}

// rankLane maps each row's cell on attr to its cut bucket, the first cut ≥
// the value (sort.SearchFloat64s), so a row lies at or below cut j exactly
// when its rank is ≤ j. ±Inf fall into the end buckets; a null or NaN cell
// gets noRank. The lane costs 4 bytes per row.
func rankLane(cols *dataset.ColumnSet, attr int, cuts []float64) []int32 {
	col, nulls := cols.Float(attr), cols.Nulls(attr)
	lane := make([]int32, cols.Len())
	for i := range lane {
		v := col[i]
		if v != v || nulls != nil && nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			lane[i] = noRank
			continue
		}
		lane[i] = int32(sort.SearchFloat64s(cuts, v))
	}
	return lane
}

// partScan is the per-discovery scan engine: predicate filtering and SSE
// scoring over row index vectors, run as vectorized predicate.Filter sweeps
// and dense column reads over the run's ColumnSet; split selection
// (partWorkspace.topSplits) builds on it. Selections stay in row order and
// every float accumulation runs in a fixed order (categorical fans sum
// per-value SSE in sorted value order), so the output is
// bitwise-reproducible; internal/verify checks it against a tuple-at-a-time
// reference. Workers share it, so it holds no scratch.
type partScan struct {
	cols *dataset.ColumnSet
	// Telemetry; nil handles no-op.
	rowsScanned *telemetry.Counter
	selectivity *telemetry.Distribution
}

// filterIdxs returns the subset of idxs satisfying p, preserving order,
// appended to dst[:0].
func (sc *partScan) filterIdxs(idxs []int, p predicate.Predicate, dst []int) []int {
	out := p.Filter(sc.cols, idxs, dst)
	sc.rowsScanned.Add(int64(len(idxs)))
	if len(idxs) > 0 {
		sc.selectivity.Observe(float64(len(out)) / float64(len(idxs)))
	}
	return out
}

// splitCandidate is one scored split group: either a numeric cut pair, with
// the number of part rows at or below its cut, or a categorical fan.
type splitCandidate struct {
	gain    float64
	numeric bool
	attr    int
	cut     float64
	below   int
}

// before ranks split candidates: gain descending, then attr and cut
// ascending. The order is strict — numeric (attr, cut) pairs are unique, a
// categorical fan owns its attribute, and a NaN gain never becomes a
// candidate — so the k best are the same set, in the same order, whatever
// order the candidates are offered in.
func (c splitCandidate) before(d splitCandidate) bool {
	if c.gain != d.gain {
		return c.gain > d.gain
	}
	if c.attr != d.attr {
		return c.attr < d.attr
	}
	return c.cut < d.cut
}

// offerSplit inserts c into best, the k best candidates offered so far in
// before order, and returns the updated slice.
func offerSplit(best []splitCandidate, k int, c splitCandidate) []splitCandidate {
	i := len(best)
	for i > 0 && c.before(best[i-1]) {
		i--
	}
	if i == k {
		return best
	}
	if len(best) < k {
		best = append(best, c)
	}
	copy(best[i+1:], best[i:len(best)-1])
	best[i] = c
	return best
}

// cutBucket sums the part rows of one cut bucket: their count, Σy and Σy².
type cutBucket struct {
	n       int
	sum, sq float64
}

// sumsSSE is Σ (y − ȳ)² of cnt rows from their Σy and Σy².
func sumsSSE(sum, sq float64, cnt int) float64 {
	return sq - sum*sum/float64(cnt)
}

// topSplits chooses the split predicates (Line 19) with the regression-tree
// strategy of [9]: group ℙ into complementary partitions — numeric {>c, ≤c}
// pairs and per-attribute categorical equality fans — score each group by
// its weighted-variance (SSE) reduction on Y, and materialize the children
// of the k best, best first. An empty part, or k < 1, has no split.
//
// A group is applicable only when it partitions the part, so the union of
// queue entries keeps covering D_C, which Problem 1 requires: a numeric pair
// needs a non-null, non-NaN value on its attribute in every row (the filters
// drop such cells from both sides), and a categorical fan must cover every
// value present.
//
// Numeric scoring reads the run's rank lanes: one pass over the part drops
// each row's y into its cut bucket, and a sweep over the buckets between
// the part's lowest and highest rank — the cuts in [min, max) of its values
// — scores every cut from running sums of y and y², so nothing is sorted. A
// running selection keeps the k best, so no candidate list is built either.
// The paper's default predicate space (a cut at every domain value) stays
// affordable. A bucket sums its rows in part order, so a gain keeps the bits
// of a sorted sweep exactly when every bucket holds at most one row (the
// default space over distinct values); ties or a sparse space can move it
// by ulps, while the chosen splits stay those of the reference scorer.
func (ws *partWorkspace) topSplits(idxs []int, k int) [][]childPart {
	if len(idxs) == 0 || k < 1 {
		return nil
	}
	hl := ws.loop
	sc, si, yattr := hl.sc, hl.si, hl.cfg.YAttr
	total := sc.sse(idxs, yattr)
	best := ws.best[:0]
	if len(ws.buckets) < si.buckets {
		ws.buckets = make([]cutBucket, si.buckets)
	}

	for _, ns := range si.num {
		buckets, ranks := ws.buckets, ns.ranks
		lo, hi := int32(len(ns.cuts)), int32(-1) // lowest and highest rank
		applicable := true
		for _, ti := range idxs {
			r := ranks[ti]
			if r == noRank {
				applicable = false
				break
			}
			lo, hi = min(lo, r), max(hi, r)
			y := hl.ycol[ti]
			b := &buckets[r]
			b.n++
			b.sum += y
			b.sq += y * y
		}
		touched := buckets[lo:max(lo, hi+1)]
		if !applicable || lo == hi {
			// A null or NaN cell: the pair would not partition the part. One
			// rank: no cut lies in the part's [min, max).
			clear(touched)
			continue
		}
		var t1, t2 float64
		for _, b := range touched {
			t1 += b.sum
			t2 += b.sq
		}
		n := len(idxs)
		var s1, s2 float64 // Σy, Σy² of the rows at or below cut j
		below := 0
		for j := lo; j < hi; j++ {
			s1 += buckets[j].sum
			s2 += buckets[j].sq
			below += buckets[j].n
			// lo ≤ j < hi, so both sides are non-empty.
			gain := total - sumsSSE(s1, s2, below) - sumsSSE(t1-s1, t2-s2, n-below)
			if gain > 0 {
				best = offerSplit(best, k, splitCandidate{gain: gain, numeric: true, attr: ns.attr, cut: ns.cuts[j], below: below})
			}
		}
		clear(touched)
	}

	// Categorical fans.
	for _, a := range si.catOrder {
		// Group by dictionary code, then name the groups: a null cell's
		// NullCode maps to "", matching the Str of a null Value.
		codes := sc.cols.Codes(a)
		dict := sc.cols.Dict(a)
		byCode := make(map[uint32][]int)
		for _, ti := range idxs {
			byCode[codes[ti]] = append(byCode[codes[ti]], ti)
		}
		byValue := make(map[string][]int, len(byCode))
		for code, part := range byCode {
			v := ""
			if code != dataset.NullCode {
				v = dict[code]
			}
			byValue[v] = part
		}
		if len(byValue) < 2 {
			continue
		}
		// The equality fan must cover every value present in D_C. Summing
		// child SSEs in sorted value order — not map order — keeps the gain
		// a deterministic float.
		present := si.catValues[a]
		values := make([]string, 0, len(byValue))
		covered := true
		for v := range byValue {
			if !present[v] {
				covered = false
				break
			}
			values = append(values, v)
		}
		if !covered {
			continue
		}
		sort.Strings(values)
		var childSSE float64
		for _, v := range values {
			childSSE += sc.sse(byValue[v], yattr)
		}
		if gain := total - childSSE; gain > 0 {
			best = offerSplit(best, k, splitCandidate{gain: gain, attr: a})
		}
	}
	ws.best = best

	if len(best) == 0 {
		return nil
	}
	out := make([][]childPart, 0, len(best))
	for _, cand := range best {
		if cand.numeric {
			le := predicate.NumPred(cand.attr, predicate.Le, cand.cut)
			gt := predicate.NumPred(cand.attr, predicate.Gt, cand.cut)
			out = append(out, []childPart{
				{le, sc.filterIdxs(idxs, le, make([]int, 0, cand.below))},
				{gt, sc.filterIdxs(idxs, gt, make([]int, 0, len(idxs)-cand.below))},
			})
			continue
		}
		var parts []childPart
		for _, p := range si.catPreds[cand.attr] {
			if sel := sc.filterIdxs(idxs, p, nil); len(sel) > 0 {
				parts = append(parts, childPart{p, sel})
			}
		}
		out = append(out, parts)
	}
	return out
}

// sse returns Σ (y − ȳ)² over the selected rows' non-null target values,
// accumulated in idxs order.
func (sc *partScan) sse(idxs []int, yattr int) float64 {
	if len(idxs) == 0 {
		return 0
	}
	var sum float64
	n := 0
	col := sc.cols.Float(yattr)
	nulls := sc.cols.Nulls(yattr)
	if nulls == nil {
		for _, i := range idxs {
			sum += col[i]
		}
		mean := sum / float64(len(idxs))
		var s float64
		for _, i := range idxs {
			d := col[i] - mean
			s += d * d
		}
		return s
	}
	isNull := func(r int) bool { return nulls[r>>6]&(1<<(uint(r)&63)) != 0 }
	for _, i := range idxs {
		if !isNull(i) {
			sum += col[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	mean := sum / float64(n)
	var s float64
	for _, i := range idxs {
		if !isNull(i) {
			d := col[i] - mean
			s += d * d
		}
	}
	return s
}

// conjKey renders a conjunction as sortRules' key: the sorted multiset of
// its predicates.
func conjKey(c predicate.Conjunction) string {
	parts := make([]string, len(c.Preds))
	for i, p := range c.Preds {
		var b []byte
		b = strconv.AppendInt(b, int64(p.Attr), 10)
		b = strconv.AppendInt(b, int64(p.Op), 10)
		if p.Categorical {
			b = append(b, p.Str...)
		} else {
			b = strconv.AppendFloat(b, p.Num, 'g', -1, 64)
		}
		parts[i] = string(b)
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// condItem is a queue entry (C, priority). gram carries the part's
// sufficient statistics when the fast path applies (see hotpath.go).
type condItem struct {
	conj predicate.Conjunction
	idxs []int
	gram *regress.Gram
	prio float64
	seq  int
}

// condQueue is a max-heap on prio with FIFO tie-breaking.
type condQueue struct {
	items []*condItem
	seq   int
}

func (q *condQueue) nextSeq() int { q.seq++; return q.seq }

func (q *condQueue) Len() int { return len(q.items) }

func (q *condQueue) Less(i, j int) bool {
	if q.items[i].prio != q.items[j].prio {
		return q.items[i].prio > q.items[j].prio
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *condQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *condQueue) Push(x any) { q.items = append(q.items, x.(*condItem)) }

func (q *condQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}
