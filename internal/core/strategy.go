package core

// The strategy seam: Algorithm 1's lattice walk is one way to induce
// conditional regression rules, and the related work names others that fit
// the same (condition, linear model, ρ-bound) contract, such as per-example
// grow/prune induction. This file separates the engine-agnostic substrate
// (the validated configuration, the trainable rows, the columnar scan
// engine, split scoring, Gram-backed training and ρ-validation) from the
// search policy, so new induction methods plug in without forking the hot
// path.
//
// A Strategy receives a prepared *Substrate and returns the discovered
// rules. The built-in LatticeStrategy runs the lattice engine of
// discover.go on the seam; the internal/induction package contributes
// growprune.

import (
	"context"
	"runtime"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// Strategy is one rule-induction policy over the discovery substrate. The
// contract every implementation owes its callers:
//
//   - Every emitted rule's condition selects, on the substrate's columns, a
//     subset of the trainable rows on which the rule's model is within the
//     rule's published Rho (the Problem 1 per-rule guarantee).
//   - Rules are built with the substrate's signature (the RuleSet skeleton
//     from NewResult), so the codec, compaction and serving layers work
//     unchanged on any strategy's output.
//   - ctx is honored at the strategy's natural iteration granularity;
//     cancellation returns an error wrapping ErrCanceled (use Canceled).
//   - Determinism follows the resolved worker count: Workers < 0 means
//     runtime.NumCPU() workers and 0 means one. With one worker a strategy
//     must be deterministic for a fixed Seed; with more it need not be.
//
// Strategies are stateless values; a single Strategy may be used for many
// concurrent discoveries (each call gets its own Substrate).
type Strategy interface {
	// Name identifies the strategy in telemetry, CLIs and benchmarks.
	Name() string
	// Induce runs the strategy over the prepared substrate.
	Induce(ctx context.Context, sub *Substrate) (*DiscoverResult, error)
}

// Canceled wraps a context error so both ErrCanceled and the context's own
// sentinel match under errors.Is — the error contract of Strategy.Induce.
func Canceled(cause error) error { return canceled(cause) }

// Substrate is the prepared, engine-agnostic state of one discovery run: the
// validated configuration (defaults resolved), the trainable rows, and lazy
// access to the shared kernels — the columnar part scan (predicate filters,
// SSE split scoring), Gram sufficient-statistics training and the
// single-pass share scanner. Strategies consume it through the exported
// methods below; the kernels are NOT safe for concurrent use from multiple
// goroutines (the lattice's workers each build their own workspace
// instead).
type Substrate struct {
	cols     *dataset.ColumnSet // the run's data, built once per run
	cfg      *DiscoverConfig    // validated; MinSupport/MaxNodes defaulted
	all      []int              // trainable rows (non-null, finite X and Y), ascending
	fallback float64            // mean of Y over the trainable rows
	tel      discTel

	si  *splitIndex    // lazy, with the run's rank lanes
	hl  *hotLoop       // lazy
	kws *partWorkspace // lazy: scratch for the kernel methods
}

// newSubstrate validates cfg against cols (mutating it to its effective
// defaults) and prepares the run state shared by every strategy.
func newSubstrate(cols *dataset.ColumnSet, cfg *DiscoverConfig) (*Substrate, error) {
	all, fallback, err := discoverPrep(cols, cfg)
	if err != nil {
		return nil, err
	}
	return &Substrate{
		cols:     cols,
		cfg:      cfg,
		all:      all,
		fallback: fallback,
		tel:      newDiscTel(cfg.Telemetry),
	}, nil
}

// Schema returns the schema of the data under discovery.
func (s *Substrate) Schema() *dataset.Schema { return s.cols.Schema }

// NumRows returns the total row count of the data under discovery (not just
// the trainable rows).
func (s *Substrate) NumRows() int { return s.cols.Len() }

// Config returns the effective configuration: defaults resolved, MinSupport
// and MaxNodes at their documented fallbacks. The slices (XAttrs, Preds) are
// shared with the run — treat them as read-only.
func (s *Substrate) Config() DiscoverConfig { return *s.cfg }

// TrainableRows returns the indices of rows whose X and Y cells are all
// non-null and finite, in ascending order — the rows Problem 1 requires Σ to
// cover. A NaN or ±Inf cell can be neither fit nor checked, so such rows
// are left out like null ones. The slice is shared with the run; treat it
// as read-only.
func (s *Substrate) TrainableRows() []int { return s.all }

// NewResult returns a fresh result skeleton carrying the run's signature and
// the mean-of-Y fallback — identical to the skeleton the lattice engine
// starts from, so every strategy's output composes with the codec, compaction
// and serving layers.
func (s *Substrate) NewResult() *DiscoverResult {
	return &DiscoverResult{Rules: &RuleSet{
		Schema:   s.cols.Schema,
		XAttrs:   append([]int(nil), s.cfg.XAttrs...),
		YAttr:    s.cfg.YAttr,
		Fallback: s.fallback,
	}}
}

// Columns returns the run's ColumnSet, which every kernel reads.
func (s *Substrate) Columns() *dataset.ColumnSet { return s.cols }

// Filter returns the subset of idxs satisfying p, preserving order, through
// the run's vectorized columnar sweep.
func (s *Substrate) Filter(idxs []int, p predicate.Predicate) []int {
	return s.hot().sc.filterIdxs(idxs, p, nil)
}

// SSE returns Σ (y − ȳ)² of the target over the selected rows.
func (s *Substrate) SSE(idxs []int) float64 {
	return s.hot().sc.sse(idxs, s.cfg.YAttr)
}

// SplitChild is one child of a candidate split: the refining predicate and
// the parent rows it selects.
type SplitChild struct {
	Pred predicate.Predicate
	Rows []int
}

// TopSplits scores every applicable split group on the part — numeric
// {>c, ≤c} cut pairs and categorical equality fans from the predicate
// space — by SSE reduction and materializes the children of the k best,
// best first. Every returned group partitions the part, so unions of
// children preserve coverage; a numeric pair applies only when every row
// has a non-null, non-NaN value on its attribute. An empty part, or k < 1,
// has no split and returns nil.
func (s *Substrate) TopSplits(idxs []int, k int) [][]SplitChild {
	groups := s.workspace().topSplits(idxs, k)
	if len(groups) == 0 {
		return nil
	}
	out := make([][]SplitChild, len(groups))
	for i, g := range groups {
		cs := make([]SplitChild, len(g))
		for j, ch := range g {
			cs[j] = SplitChild{Pred: ch.pred, Rows: ch.idxs}
		}
		out[i] = cs
	}
	return out
}

// Fit trains the configured model family on the selected rows — the Line-13
// kernel: the O(d³) Gram sufficient-statistics solve when the trainer
// supports it (accumulated fresh in row order, bitwise-identical to a full
// pass), the full-pass fit otherwise.
func (s *Substrate) Fit(idxs []int) (regress.Model, error) {
	ws := s.workspace()
	item := &condItem{idxs: idxs}
	if hl := s.hot(); hl.gram != nil {
		item.gram = hl.gramOf(idxs)
	}
	m, _, err := ws.trainPart(item, ws.part(idxs))
	return m, err
}

// MaxAbsError returns the model's maximum absolute residual over the
// selected rows — the ρ-validation kernel.
func (s *Substrate) MaxAbsError(m regress.Model, idxs []int) float64 {
	ws := s.workspace()
	return ws.scanner.MaxAbs(m, ws.part(idxs))
}

// GramOf accumulates the part's sufficient statistics in row order, or nil
// when the configured trainer has no Gram fast path.
func (s *Substrate) GramOf(idxs []int) *regress.Gram {
	hl := s.hot()
	if hl.gram == nil {
		return nil
	}
	return hl.gramOf(idxs)
}

// ShareScan runs the single-pass Proposition-6 share scan of the model pool
// over the selected rows: the index of the first (newest-first) model whose
// δ0-shifted residual envelope fits within ρ_M (−1 for none), the share
// result for that model, and the sharing index ind(C).
func (s *Substrate) ShareScan(pool []regress.Model, idxs []int) (int, regress.ShareResult, float64) {
	ws := s.workspace()
	hit, res, ind, _ := ws.scanner.Scan(pool, ws.part(idxs), s.cfg.RhoM)
	return hit, res, ind
}

func (s *Substrate) splitIdx() *splitIndex {
	if s.si == nil {
		s.si = newSplitIndex(s.cfg.Preds, s.cols)
	}
	return s.si
}

// hot returns the run's hot loop, built lazily.
func (s *Substrate) hot() *hotLoop {
	if s.hl == nil {
		s.hl = newHotLoop(s.cols, s.cfg, s.splitIdx(), s.tel)
	}
	return s.hl
}

// workspace returns the substrate's own kernel scratch (not the per-worker
// workspaces of the lattice engine), exact so the kernels are bitwise
// reproducible. The gathered buffers are recycled across calls, which is
// why the kernel methods are single-goroutine.
func (s *Substrate) workspace() *partWorkspace {
	if s.kws == nil {
		s.kws = s.hot().workspace(true)
	}
	return s.kws
}

// LatticeStrategy is Algorithm 1 — the paper's priority-queue lattice walk
// with model sharing — expressed as the default induction strategy. It runs
// with the resolved worker count (Workers < 0: runtime.NumCPU(); 0: one).
// One worker pops in exact ind(C) order and its output is bitwise
// reproducible; several workers race over the same queue, so their rule set
// may vary run to run.
type LatticeStrategy struct{}

// Name implements Strategy.
func (LatticeStrategy) Name() string { return "lattice" }

// Induce implements Strategy.
func (LatticeStrategy) Induce(ctx context.Context, sub *Substrate) (*DiscoverResult, error) {
	workers := sub.cfg.Workers
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	return lattice(ctx, sub, max(workers, 1))
}

// strategyOf resolves the configured strategy, defaulting to the lattice.
func strategyOf(cfg *DiscoverConfig) Strategy {
	if cfg.Strategy != nil {
		return cfg.Strategy
	}
	return LatticeStrategy{}
}

// discoverFor is the single entry path of the discovery engine: every public
// entrypoint (Discover, DiscoverTargets, DiscoverColumns) runs applyDefaults
// and then funnels a configuration and the run's ColumnSet through here, so
// strategy selection and substrate preparation happen in exactly one place.
func discoverFor(ctx context.Context, cols *dataset.ColumnSet, cfg DiscoverConfig) (*DiscoverResult, error) {
	strat := strategyOf(&cfg)
	sub, err := newSubstrate(cols, &cfg)
	if err != nil {
		return nil, err
	}
	cfg.Telemetry.Counter(telemetry.InductionStrategyRuns(strat.Name())).Inc()
	return strat.Induce(ctx, sub)
}
