package core

// The part-workspace performance layer under the lattice engine's workers.
//
// Algorithm 1's cost is dominated by three per-node re-computations: the
// FeatureRows materialization of the part, the two ShareTest scans over the
// model set F (Line 7's hit test, then Line 12's sharing index), and the
// from-scratch OLS fit of Line 13. This file removes all three:
//
//   - the run's dataset.ColumnSet (built once per run) holds the X
//     and Y columns contiguously, so queue pops gather each X lane and Y of
//     the part into contiguous column-major buffers (a regress.Part, with no
//     per-row slice headers), and part materialization runs through the
//     vectorized predicate filters;
//   - regress.ShareScanner computes each model's residuals lane by lane
//     (its Residuals kernel) and reads the residual envelope and fit
//     fraction off them, returning the Proposition-6 share hit and ind(C)
//     together; the ρ check of a fresh model reads the same kernel;
//   - queue items carry regress.Gram sufficient statistics, accumulated when
//     a split's children are materialized, so Line-13 training is an O(d³)
//     normal-equation solve instead of an O(n·d²) re-pass. Trainers without
//     the fast path (the MLP) and degenerate parts keep the exact full-pass
//     fit.
//
// Every worker runs this hot loop (evaluate), so accept/force/split
// decisions, Proposition 8 split sizing and MinSupport handling are decided
// in exactly one place.

import (
	"fmt"
	"time"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/regress"
)

// hotLoop is the shared, read-only state of one discovery run's hot path.
// Workers share it; per-worker scratch lives in partWorkspace. Parts are
// materialized and scored against the run's ColumnSet (sc.cols); trainable
// rows have non-null, finite X and Y, so per-node access is a dense column
// gather with no null checks.
type hotLoop struct {
	cfg   *DiscoverConfig
	si    *splitIndex
	sc    *partScan
	xcols [][]float64 // sc.cols.Float per X attribute
	ycol  []float64   // sc.cols.Float(YAttr)
	dim   int
	tel   discTel
	// gram is non-nil when the sufficient-statistics fast path applies
	// (trainer implements regress.GramTrainer and the signature has
	// features; a width-0 fit needs the full pass for its minimax constant).
	gram regress.GramTrainer
}

func newHotLoop(cols *dataset.ColumnSet, cfg *DiscoverConfig, si *splitIndex, tel discTel) *hotLoop {
	hl := &hotLoop{
		cfg: cfg,
		si:  si,
		sc: &partScan{
			cols:        cols,
			rowsScanned: tel.rowsScanned,
			selectivity: tel.filterSel,
		},
		ycol: cols.Float(cfg.YAttr),
		dim:  len(cfg.XAttrs),
		tel:  tel,
	}
	hl.xcols = make([][]float64, len(cfg.XAttrs))
	for i, a := range cfg.XAttrs {
		hl.xcols[i] = cols.Float(a)
	}
	if gt, ok := cfg.Trainer.(regress.GramTrainer); ok && len(cfg.XAttrs) > 0 {
		hl.gram = gt
	}
	return hl
}

// gramOf accumulates a part's sufficient statistics from the dense columns,
// in part order — the same order a full-pass fit would consume the rows, so
// the resulting fit is bitwise identical to it.
func (hl *hotLoop) gramOf(idxs []int) *regress.Gram {
	g := regress.NewGram(hl.dim)
	row := make([]float64, hl.dim)
	for _, ti := range idxs {
		for j, col := range hl.xcols {
			row[j] = col[ti]
		}
		g.Add(row, hl.ycol[ti])
	}
	return g
}

// rootGram builds the root part's statistics (nil when the fast path does
// not apply); children derive theirs incrementally from it.
func (hl *hotLoop) rootGram(all []int) *regress.Gram {
	if hl.gram == nil {
		return nil
	}
	return hl.gramOf(all)
}

// workspace returns a fresh per-worker scratch workspace; exact selects how
// it derives child Grams (see partWorkspace.exact).
func (hl *hotLoop) workspace(exact bool) *partWorkspace {
	return &partWorkspace{loop: hl, exact: exact}
}

// partWorkspace is one worker's reusable scratch: the gathered part lanes,
// the share scanner's residual buffer, the split scorer's cut buckets and
// running top-k, and the row-major design of a full-pass fit. Steady-state
// node evaluation does not allocate. Every buffer is recycled on the next
// node, so trainers must not retain the design beyond Train (the built-in
// families copy or consume it inside the call).
type partWorkspace struct {
	loop *hotLoop
	// exact accumulates every child Gram fresh in row order, so a fast-path
	// fit is bitwise identical to the full pass: the one-worker lattice and
	// the Substrate kernels set it. Several workers, whose output order
	// varies run to run anyway, derive the largest child as parent − Σ
	// siblings instead, which is cheaper and drifts by ulps.
	exact   bool
	lanes   []float64   // column-major gather backing: the X lanes, then Y
	xs      [][]float64 // the part's X lane headers, one per X attribute
	scanner regress.ShareScanner
	buckets []cutBucket      // topSplits: per-bucket sums, all zero between calls
	best    []splitCandidate // topSplits: the running top-k
	rows    []float64        // design: row-major backing
	design  [][]float64      // design: row headers
}

// part gathers a part's X lanes and targets from the dense columns into the
// workspace's contiguous column-major buffers.
func (ws *partWorkspace) part(idxs []int) regress.Part {
	hl := ws.loop
	n := len(idxs)
	if cap(ws.lanes) < (hl.dim+1)*n {
		ws.lanes = make([]float64, (hl.dim+1)*n)
	}
	if ws.xs == nil {
		ws.xs = make([][]float64, hl.dim)
	}
	for j, col := range hl.xcols {
		lane := ws.lanes[j*n : (j+1)*n : (j+1)*n]
		for i, ti := range idxs {
			lane[i] = col[ti]
		}
		ws.xs[j] = lane
	}
	y := ws.lanes[hl.dim*n : (hl.dim+1)*n]
	for i, ti := range idxs {
		y[i] = hl.ycol[ti]
	}
	hl.tel.cacheHits.Inc()
	return regress.Part{X: ws.xs, Y: y}
}

// rowMajor lays p out row-major in workspace scratch: the [][]float64
// design a full-pass Train reads. Only the full pass needs it.
func (ws *partWorkspace) rowMajor(p regress.Part) [][]float64 {
	n, dim := p.Len(), len(p.X)
	if cap(ws.rows) < n*dim {
		ws.rows = make([]float64, n*dim)
	}
	if cap(ws.design) < n {
		ws.design = make([][]float64, n)
	}
	design := ws.design[:n]
	for i := range design {
		row := ws.rows[i*dim : (i+1)*dim : (i+1)*dim]
		for j, lane := range p.X {
			row[j] = lane[i]
		}
		design[i] = row
	}
	return design
}

// trainPart runs Line 13 for one part: the Gram fast path when the item
// carries statistics the trainer can consume, the exact full-pass fit
// otherwise (the MLP, and the QR/jitter handling of degenerate parts), over
// a row-major design built only then.
func (ws *partWorkspace) trainPart(item *condItem, p regress.Part) (regress.Model, bool, error) {
	hl := ws.loop
	start := time.Now()
	if hl.gram != nil && item.gram != nil {
		if m, err := hl.gram.TrainGram(item.gram); err == nil {
			hl.tel.trainTime.Observe(time.Since(start))
			hl.tel.statReuse.Inc()
			return m, true, nil
		}
		// Singular or degenerate statistics: fall through to the full pass.
	}
	m, err := hl.cfg.Trainer.Train(ws.rowMajor(p), p.Y)
	hl.tel.trainTime.Observe(time.Since(start))
	if err != nil {
		return nil, false, fmt.Errorf("core: training on %d tuples: %w", p.Len(), err)
	}
	return m, false, nil
}

// nodeEval is the outcome of evaluating one condition node: a Line-7 share
// hit, or a freshly trained model together with the accept/force/refine
// decision of Lines 13–22.
type nodeEval struct {
	hit      bool                // Lines 7–10 share hit
	model    regress.Model       // shared model (hit) or the fresh Line-13 model
	share    regress.ShareResult // valid when hit
	maxErr   float64             // fresh model's bias on the part (valid when !hit)
	ind      float64             // sharing index ind(C) (valid when !hit)
	accept   bool                // emit the fresh model as a rule
	forced   bool                // acceptance came from MinSupport / no-split coverage
	children []condItem          // refinements to enqueue when !accept
}

// evaluate runs the hot loop for one queue item against the model pool F,
// so the Algorithm 1 semantics — newest-first δ0 sharing, ind(C), ρ_M
// acceptance, the MinSupport floor, Proposition 8 split sizing and the
// coverage-forced acceptance — live in one place.
func (ws *partWorkspace) evaluate(item *condItem, pool []regress.Model) (nodeEval, error) {
	hl := ws.loop
	cfg := hl.cfg
	p := ws.part(item.idxs)
	var ev nodeEval

	// Lines 7–10 and Line 12 in one sweep: the single-pass share scan
	// returns the Proposition-6 hit and ind(C) together.
	if !cfg.DisableSharing {
		start := time.Now()
		idx, res, ind, tried := ws.scanner.Scan(pool, p, cfg.RhoM)
		hl.tel.shareTime.Observe(time.Since(start))
		hl.tel.shareTests.Add(int64(tried))
		hl.tel.scanWidth.Observe(float64(tried))
		if idx >= 0 {
			ev.hit = true
			ev.model = pool[idx]
			ev.share = res
			return ev, nil
		}
		ev.ind = ind
	} else {
		// The ablation still orders the queue (and sizes Proposition 8
		// splits) by ind(C), so Line 12 runs even with sharing off.
		start := time.Now()
		ev.ind = ws.scanner.Index(pool, p, cfg.RhoM)
		hl.tel.shareTime.Observe(time.Since(start))
		hl.tel.shareTests.Add(int64(len(pool)))
		hl.tel.scanWidth.Observe(float64(len(pool)))
	}

	// Line 13: train a new model.
	model, _, err := ws.trainPart(item, p)
	if err != nil {
		return ev, err
	}
	ev.model = model
	ev.maxErr = ws.scanner.MaxAbs(model, p)
	if ev.maxErr <= cfg.RhoM {
		ev.accept = true
		return ev, nil
	}
	if len(item.idxs) <= cfg.MinSupport {
		ev.accept, ev.forced = true, true
		return ev, nil
	}

	// Line 19: the number of split predicates. The default is the single
	// best cut; Prop8Splits takes the top ⌈(1−ind(C))·|D_C|⌉ groups
	// (Proposition 8), capped to keep the overlap bounded. With ind(C) = 0
	// nothing is close to shareable and the proposition is vacuous, so the
	// single best cut is used.
	k := 1
	if cfg.Prop8Splits && ev.ind > 0 {
		k = int((1-ev.ind)*float64(len(item.idxs))) + 1
		if k > prop8MaxGroups {
			k = prop8MaxGroups
		}
	}
	for _, group := range ws.topSplits(item.idxs, k) {
		ev.children = append(ev.children, ws.childItems(item, group)...)
	}
	if len(ev.children) == 0 {
		// No applicable predicate can split this part: accept to guarantee
		// coverage (§V-A2).
		ev.accept, ev.forced = true, true
	}
	return ev, nil
}

// childItems materializes one split group's children C ∧ p with their
// sufficient statistics. Every group returned by topSplits partitions the
// parent (numeric {>c, ≤c} pairs over null- and NaN-free values;
// categorical fans covering every present value), so the largest child's
// Gram can be derived when the workspace is not exact.
func (ws *partWorkspace) childItems(item *condItem, group []childPart) []condItem {
	hl := ws.loop
	out := make([]condItem, len(group))
	for i, ch := range group {
		out[i] = condItem{conj: item.conj.And(ch.pred), idxs: ch.idxs}
	}
	if hl.gram == nil || item.gram == nil {
		return out
	}
	largest := 0
	for i, ch := range group {
		if len(ch.idxs) > len(group[largest].idxs) {
			largest = i
		}
	}
	var sibling *regress.Gram
	if !ws.exact {
		sibling = item.gram.Clone()
	}
	for i := range out {
		if i == largest && sibling != nil {
			continue
		}
		g := hl.gramOf(out[i].idxs)
		if sibling != nil {
			sibling.Sub(g)
		}
		out[i].gram = g
	}
	if sibling != nil {
		out[largest].gram = sibling
	}
	return out
}
