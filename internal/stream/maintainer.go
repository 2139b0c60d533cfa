// Package stream maintains a discovered rule set against live data: a
// bounded-ingestion layer that keeps the regression models of a RuleSet in
// step with a sliding window of arriving rows, without re-running discovery.
//
// The maintenance loop is built from the repo's existing pieces, composed:
//
//   - dataset.SlidingWindow holds the last W rows, columnar, with amortized
//     compaction.
//   - core.RuleSet.Covering routes each arriving and expiring row to every
//     rule whose condition selects it, through the same interval index
//     Predict uses — O(1) candidate conjunctions per row, not a rule scan.
//   - regress.Gram.Add / Gram.Downdate maintain per-rule sufficient
//     statistics rank-1 per routed row, so a model re-fit is the O(d³)
//     normal-equation solve (TrainGram), never an O(W·d²) design pass.
//   - Gram.Degenerate plus the Cholesky pivot check guard the carried
//     statistics against downdate cancellation; on either tripping, the Gram
//     is rebuilt fresh from the surviving rows (counted as a rebuild).
//   - The bias bound ρM of Definition 1 is the one reason to retire a rule.
//     A refit whose max residual over the rule's routed rows stays within
//     ρM is accepted. One that exceeds it raises an alarm (a drift event),
//     and predicate's vectorized filters check the alarm: a retire is
//     irreversible for the maintained set, so the rule's covered selection
//     is re-derived independently — one columnar sweep per conjunction over
//     the window's (Cols, Sel), not the routed bookkeeping — and refit from
//     fresh statistics. Only a fresh fit that also exceeds ρM retires the
//     rule. Routine refits never pay that sweep; they reuse the exact routed
//     pairs.
//
// Nothing here mines new rules: the rows of a retired rule fall back to the
// window's target mean.
//
// Every refit is ordinary least squares, so New accepts only OLS (linear,
// F1) rules and refuses any other family with ErrModelFamily rather than
// turn it into an OLS rule on its first refit. Ridge (F2) rules wait on the
// artifact recording their λ; MLP (F3) rules have no sufficient-statistics
// refit.
//
// Refreshed rule sets leave through Snapshot(), a freshly indexed RuleSet
// suitable for atomic hot-swap into a serving process: in process through
// serve.Server.InstallIfGeneration, or over the wire through POST
// /v1/reload, which cmd/crrstream -push drives.
//
// The Maintainer is single-writer: Append and Snapshot must not be called
// concurrently. Snapshots are immutable once returned and safe to serve
// concurrently, matching the serving layer's artifact contract.
package stream

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// Config parameterizes a Maintainer. Window and RhoM are required; Registry
// and Logf are optional.
type Config struct {
	// Window is the sliding-window capacity in rows. Required.
	Window int

	// RhoM is the maximum tolerable bias ρM of Definition 1: a rule retires
	// when a refit's max residual over its covered window rows exceeds it and
	// the re-derived selection confirms that. Required (use the bound
	// discovery ran with).
	RhoM float64

	// Alpha is ignored.
	//
	// Deprecated: no significance test decides a rule's fate; only RhoM
	// does. The field remains so that callers which set it still compile.
	Alpha float64

	// Registry receives the stream.* telemetry counters. Optional.
	Registry *telemetry.Registry

	// Logf, when set, receives one line per lifecycle event (refit, retire,
	// rebuild). Default: silent.
	Logf func(format string, args ...any)
}

// ErrModelFamily reports a rule whose model family the maintainer cannot
// refit: every refit is OLS, so only linear (F1) rules are accepted.
var ErrModelFamily = errors.New("stream: only OLS (linear) rules can be maintained")

// dirtyFrac is the refit trigger: a rule is re-examined once its
// adds+expirations since the last examination reach this fraction of its
// covered rows.
const dirtyFrac = 0.25

// ols fits every model: ordinary least squares, the F1 family discovery
// defaults to.
var ols regress.LinearTrainer

// Stats is a point-in-time snapshot of the maintenance counters (also
// exported through the telemetry registry under the stream.* names).
type Stats struct {
	RowsIngested uint64 // rows accepted into the window
	Refits       uint64 // incremental model re-fits from carried statistics
	DriftEvents  uint64 // refits whose ρ exceeded ρM, sent to revalidation
	Retires      uint64 // drift events the re-derived selection confirmed
	Rebuilds     uint64 // carried Grams rebuilt after numerical degeneracy
	Swaps        uint64 // snapshots handed out
}

// ruleQueue is one rule's FIFO of absorbed training pairs — the exact
// shifted (x, y) each Gram.Add saw, kept so the expiry Downdate is the
// bitwise rank-1 inverse of the Add. The window is FIFO, so a rule's oldest
// pair always belongs to its oldest covered row: Append pushes at the tail,
// expiry pops at the head, and the live pairs are xs[head:], ys[head:] in
// arrival order — a rule's covered selection readable in O(1) with no
// window scan.
type ruleQueue struct {
	xs   [][]float64
	ys   []float64
	head int
}

func (q *ruleQueue) push(x []float64, y float64) {
	q.xs = append(q.xs, x)
	q.ys = append(q.ys, y)
}

func (q *ruleQueue) pop() (x []float64, y float64) {
	x, y = q.xs[q.head], q.ys[q.head]
	q.xs[q.head] = nil // release the pair to the GC
	q.head++
	// Amortized compaction keeps the dead prefix bounded by the live length.
	if q.head > 32 && q.head >= len(q.ys)/2 {
		q.xs = q.xs[:copy(q.xs, q.xs[q.head:])]
		q.ys = q.ys[:copy(q.ys, q.ys[q.head:])]
		q.head = 0
	}
	return x, y
}

func (q *ruleQueue) pairs() (xs [][]float64, ys []float64) {
	return q.xs[q.head:], q.ys[q.head:]
}

// ruleState is the per-rule carried maintenance state.
type ruleState struct {
	gram    *regress.Gram
	covered int  // fit-usable rows currently in the window
	dirty   int  // adds+expirations since the last examination
	retired bool // excluded from snapshots; keeps routing slot
}

// Maintainer keeps one RuleSet maintained against a sliding window of
// arriving rows. Create with New, feed with Append, publish with Snapshot.
type Maintainer struct {
	cfg   Config
	rules *core.RuleSet // working copy: conditions fixed, models refit in place
	// minRefit is the fewest fit-usable covered rows a rule needs to be
	// re-examined at all, max(16, 4·(dim+1)); below it the rule keeps its
	// current model.
	minRefit int
	win      *dataset.SlidingWindow
	// rowRules is a queue aligned with window positions: rowRules[i] lists
	// the rules that absorbed live row i, each holding that row's pair in its
	// cover queue.
	rowRules [][]int32
	queues   []ruleQueue
	state    []ruleState

	ySum   float64 // running Σy over non-null-Y live rows (fallback mean)
	yCount int

	changed bool
	stats   Stats

	// Scratch buffers (single-writer, recycled across Appends).
	covBuf  []core.CoveringEntry
	selBuf  []int
	claimed []uint64

	ctrRows, ctrRefits, ctrDrift, ctrRetires, ctrRebuilds, ctrSwaps *telemetry.Counter
}

// New builds a Maintainer over rules. The rule set is copied shallowly —
// conditions and schema are shared (they are immutable here), models are
// replaced wholesale on refit — so the caller's set is never mutated. A rule
// whose model is not linear fails with an error wrapping ErrModelFamily.
func New(rules *core.RuleSet, cfg Config) (*Maintainer, error) {
	if rules == nil || rules.Schema == nil {
		return nil, errors.New("stream: rule set must carry a schema")
	}
	for i := range rules.Rules {
		if f := rules.Rules[i].Model.Family(); f != "linear" {
			return nil, fmt.Errorf("%w: rule %d is %s", ErrModelFamily, i, f)
		}
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("stream: Config.Window %d must be positive", cfg.Window)
	}
	if !(cfg.RhoM > 0) {
		return nil, fmt.Errorf("stream: Config.RhoM %v must be positive (use discovery's bias bound)", cfg.RhoM)
	}
	win, err := dataset.NewSlidingWindow(rules.Schema, cfg.Window)
	if err != nil {
		return nil, err
	}
	working := &core.RuleSet{
		Schema:   rules.Schema,
		XAttrs:   append([]int(nil), rules.XAttrs...),
		YAttr:    rules.YAttr,
		Rules:    append([]core.CRR(nil), rules.Rules...),
		Fallback: rules.Fallback,
	}
	m := &Maintainer{
		cfg:      cfg,
		rules:    working,
		minRefit: max(16, 4*(len(working.XAttrs)+1)),
		win:      win,
		queues:   make([]ruleQueue, len(working.Rules)),
		state:    make([]ruleState, len(working.Rules)),

		ctrRows:     cfg.Registry.Counter(telemetry.MetricStreamRowsIngested),
		ctrRefits:   cfg.Registry.Counter(telemetry.MetricStreamRefits),
		ctrDrift:    cfg.Registry.Counter(telemetry.MetricStreamDriftEvents),
		ctrRetires:  cfg.Registry.Counter(telemetry.MetricStreamRetires),
		ctrRebuilds: cfg.Registry.Counter(telemetry.MetricStreamRebuilds),
		ctrSwaps:    cfg.Registry.Counter(telemetry.MetricStreamSwaps),
	}
	for i := range m.state {
		m.state[i].gram = regress.NewGram(len(working.XAttrs))
	}
	return m, nil
}

func (m *Maintainer) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Window exposes the live window (read-only; valid until the next Append).
func (m *Maintainer) Window() *dataset.SlidingWindow { return m.win }

// Stats returns the maintenance counters.
func (m *Maintainer) Stats() Stats { return m.stats }

// Live returns the number of non-retired rules.
func (m *Maintainer) Live() int {
	n := 0
	for i := range m.state {
		if !m.state[i].retired {
			n++
		}
	}
	return n
}

// Changed reports whether any rule's model, ρ, lifecycle state or the
// fallback mean has changed since the last Snapshot — the signal a driver
// polls to decide when to push a fresh artifact.
func (m *Maintainer) Changed() bool { return m.changed }

// Append ingests one row: it enters the window (expiring the oldest once the
// window is full), is routed to every covering rule whose carried statistics
// absorb it rank-1, and any rule whose churn since its last examination
// exceeds the dirty threshold is re-examined (refit, retire, or left alone).
func (m *Maintainer) Append(t dataset.Tuple) error {
	expired, err := m.win.Append(t)
	if err != nil {
		return err
	}
	m.stats.RowsIngested++
	m.ctrRows.Inc()

	if expired != nil {
		old := m.rowRules[0]
		m.rowRules = m.rowRules[1:]
		for _, ri := range old {
			st := &m.state[ri]
			x, y := m.queues[ri].pop()
			st.gram.Downdate(x, y)
			st.covered--
			st.dirty++
		}
		if !expired[m.rules.YAttr].Null {
			m.ySum -= expired[m.rules.YAttr].Num
			m.yCount--
		}
	}

	var rowRules []int32
	if !t[m.rules.YAttr].Null {
		m.ySum += t[m.rules.YAttr].Num
		m.yCount++
		m.covBuf = m.rules.Covering(t, m.covBuf)
		for _, e := range m.covBuf {
			st := &m.state[e.Rule]
			if st.retired {
				continue
			}
			rule := &m.rules.Rules[e.Rule]
			conj := rule.Cond.Conjs[e.Conj]
			x := make([]float64, len(rule.XAttrs))
			for i, attr := range rule.XAttrs {
				x[i] = t[attr].Num + conj.Builtin.Shift(attr)
			}
			y := t[m.rules.YAttr].Num - conj.Builtin.YShift
			st.gram.Add(x, y)
			st.covered++
			st.dirty++
			m.queues[e.Rule].push(x, y)
			rowRules = append(rowRules, int32(e.Rule))
		}
	}
	m.rowRules = append(m.rowRules, rowRules)

	for ri := range m.state {
		st := &m.state[ri]
		if st.retired || st.covered < m.minRefit {
			continue
		}
		if float64(st.dirty) >= dirtyFrac*float64(st.covered) {
			m.examine(ri)
		}
	}
	return nil
}

// Refit re-examines every live rule with enough covered rows immediately,
// ignoring the dirty thresholds — the flush drivers call before a swap so the
// published models reflect the window as of now, not as of each rule's last
// threshold crossing. (The windowed-maintenance oracle in internal/verify
// relies on this: after Refit, an examined rule's model and ρ are exactly the
// carried-statistics fit over its current covered selection.)
func (m *Maintainer) Refit() {
	for ri := range m.state {
		if st := &m.state[ri]; !st.retired && st.covered >= m.minRefit {
			m.examine(ri)
		}
	}
}

// examine re-fits rule ri from its carried statistics and decides its fate:
// keep the refit, or retire the rule. The decision sequence is
//
//  1. degenerate or unsolvable statistics → rebuild fresh from the window
//     (a rebuild), then retry the solve; still unsolvable → keep the old
//     model untouched (too little data to say anything);
//  2. the refit's empirical ρ (max residual over the covered selection)
//     exceeds ρM → a drift event: the rule is suspect, and the decision
//     moves to revalidate;
//  3. otherwise the refit is accepted: the rule's model and ρ move to the
//     new fit.
func (m *Maintainer) examine(ri int) {
	st := &m.state[ri]
	st.dirty = 0

	xs, ys := m.coveredRows(ri)
	n := len(ys)
	if n < m.minRefit {
		return
	}
	if st.gram.Degenerate() {
		m.rebuild(ri, xs, ys)
	}
	model, err := ols.TrainGram(st.gram)
	if err != nil {
		// The carried statistics cannot serve the fit — most often downdate
		// cancellation that slipped past the cheap Degenerate check and broke
		// Cholesky. Rebuild once from the surviving rows and retry.
		m.rebuild(ri, xs, ys)
		if model, err = ols.TrainGram(st.gram); err != nil {
			return
		}
	}
	m.stats.Refits++
	m.ctrRefits.Inc()

	rho := maxResidual(model, xs, ys)
	if rho > m.cfg.RhoM {
		m.stats.DriftEvents++
		m.ctrDrift.Inc()
		m.revalidate(ri)
		return
	}
	m.accept(ri, model, rho, n)
}

// accept installs a refit that passed every check.
func (m *Maintainer) accept(ri int, model regress.Model, rho float64, n int) {
	rule := &m.rules.Rules[ri]
	if !model.Equal(rule.Model, 0) || rho != rule.Rho {
		rule.Model = model
		rule.Rho = rho
		m.changed = true
	}
	m.logf("stream: refit rule %d over %d rows, ρ=%.4g", ri, n, rho)
}

// revalidate is the drift-triggered slow path: the routed statistics flagged
// rule ri's refit as beyond ρM, so its covered selection is re-derived
// through the vectorized predicate filters — an independent columnar sweep
// per conjunction, sharing nothing with the Covering bookkeeping — and the
// verdict recomputed from a freshly accumulated fit over that selection.
// Only a confirmed breach retires the rule.
func (m *Maintainer) revalidate(ri int) {
	xs, ys := m.coveredRowsFiltered(ri)
	n := len(ys)
	if n < m.minRefit {
		return // the independent selection is below the refit floor: keep the rule
	}
	g := regress.NewGram(len(m.rules.XAttrs))
	for i, x := range xs {
		g.Add(x, ys[i])
	}
	model, err := ols.TrainGram(g)
	if err != nil {
		return // cannot test ⇒ keep the rule
	}
	rho := maxResidual(model, xs, ys)
	if rho > m.cfg.RhoM {
		m.retire(ri, fmt.Sprintf("refit ρ %.4g exceeds ρM %.4g", rho, m.cfg.RhoM))
		return
	}
	// The independently selected rows hold within ρM — the alarm was an
	// artifact of the routed bookkeeping. Keep the rule on the re-derived fit.
	m.accept(ri, model, rho, n)
}

// maxResidual returns the max |residual| of model over the pairs: the
// empirical ρ.
func maxResidual(model regress.Model, xs [][]float64, ys []float64) (rho float64) {
	for i, x := range xs {
		if a := math.Abs(ys[i] - model.Predict(x)); a > rho {
			rho = a
		}
	}
	return rho
}

// rebuild re-accumulates rule ri's Gram fresh from its covered window rows
// (the fallback for downdate cancellation); the cover queue is untouched, so
// future expirations keep downdating the rebuilt statistics consistently.
func (m *Maintainer) rebuild(ri int, xs [][]float64, ys []float64) {
	st := &m.state[ri]
	g := regress.NewGram(len(m.rules.XAttrs))
	for i, x := range xs {
		g.Add(x, ys[i])
	}
	st.gram = g
	st.covered = len(ys)
	m.stats.Rebuilds++
	m.ctrRebuilds.Inc()
	m.logf("stream: rebuilt statistics of rule %d from %d rows", ri, len(ys))
}

// retire drops rule ri from future snapshots. The routing slot stays (rule
// indices are stable for row-cover bookkeeping); pending covers of the
// retired rule downdate its unused Gram harmlessly.
func (m *Maintainer) retire(ri int, why string) {
	m.state[ri].retired = true
	m.changed = true
	m.stats.Retires++
	m.ctrRetires.Inc()
	m.logf("stream: retired rule %d (%s)", ri, why)
}

// coveredRows returns rule ri's fit-usable covered window rows — the exact
// shifted training pairs its Gram absorbed, in window (arrival) order — as
// views into its cover queue: O(1), zero copy, bitwise agreement with the
// carried statistics by construction. The slices are read-only and valid
// until the next Append.
func (m *Maintainer) coveredRows(ri int) (xs [][]float64, ys []float64) {
	return m.queues[ri].pairs()
}

// coveredRowsFiltered re-derives rule ri's fit-usable covered selection
// through the vectorized predicate filters: one columnar sweep per
// conjunction over the window's (Cols, Sel), first-match claims enforced
// with a row bitmap, then null-X/null-Y rows dropped. It shares nothing with
// the Covering-index routing, which is exactly why revalidate uses it as the
// independent second opinion before a retire (and why tests diff it against
// coveredRows).
func (m *Maintainer) coveredRowsFiltered(ri int) (xs [][]float64, ys []float64) {
	rule := &m.rules.Rules[ri]
	cols, sel := m.win.Cols(), m.win.Sel()
	words := (cols.Len() + 63) / 64
	if cap(m.claimed) < words {
		m.claimed = make([]uint64, words)
	}
	m.claimed = m.claimed[:words]
	for i := range m.claimed {
		m.claimed[i] = 0
	}
	type claim struct{ row, conj int }
	var claims []claim
	for ci := range rule.Cond.Conjs {
		m.selBuf = rule.Cond.Conjs[ci].Filter(cols, sel, m.selBuf)
		for _, r := range m.selBuf {
			if m.claimed[r>>6]&(1<<(uint(r)&63)) != 0 {
				continue
			}
			m.claimed[r>>6] |= 1 << (uint(r) & 63)
			claims = append(claims, claim{row: r, conj: ci})
		}
	}
	// Claims from different conjunctions interleave; restore window order
	// (appender rows are strictly increasing along the window).
	sort.Slice(claims, func(i, j int) bool { return claims[i].row < claims[j].row })
rows:
	for _, c := range claims {
		if cols.IsNull(m.rules.YAttr, c.row) {
			continue
		}
		conj := rule.Cond.Conjs[c.conj]
		x := make([]float64, len(rule.XAttrs))
		for i, attr := range rule.XAttrs {
			if cols.IsNull(attr, c.row) {
				continue rows
			}
			x[i] = cols.Float(attr)[c.row] + conj.Builtin.Shift(attr)
		}
		xs = append(xs, x)
		ys = append(ys, cols.Float(m.rules.YAttr)[c.row]-conj.Builtin.YShift)
	}
	return xs, ys
}

// Coverage returns the fraction of live window rows covered by at least one
// non-retired rule — the incremental coverage re-validation figure.
func (m *Maintainer) Coverage() float64 {
	rows := m.win.Rows()
	if len(rows) == 0 {
		return 1
	}
	covered := 0
	for _, t := range rows {
		m.covBuf = m.rules.Covering(t, m.covBuf)
		for _, e := range m.covBuf {
			if !m.state[e.Rule].retired {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(rows))
}

// Snapshot publishes the maintained rule set: a fresh RuleSet holding the
// non-retired rules with their current models and ρ, the fallback re-centred
// on the window's exact target mean, and its own prediction index — safe to
// hand to a serving process for an atomic swap. Snapshot clears Changed.
func (m *Maintainer) Snapshot() *core.RuleSet {
	out := &core.RuleSet{
		Schema:   m.rules.Schema,
		XAttrs:   append([]int(nil), m.rules.XAttrs...),
		YAttr:    m.rules.YAttr,
		Fallback: m.rules.Fallback,
	}
	if m.yCount > 0 {
		// Re-sum exactly: the running ySum drifts by ulps over long streams.
		var sum float64
		n := 0
		for _, t := range m.win.Rows() {
			if !t[m.rules.YAttr].Null {
				sum += t[m.rules.YAttr].Num
				n++
			}
		}
		out.Fallback = sum / float64(n)
	}
	for ri := range m.rules.Rules {
		if !m.state[ri].retired {
			out.Rules = append(out.Rules, m.rules.Rules[ri])
		}
	}
	m.changed = false
	m.stats.Swaps++
	m.ctrSwaps.Inc()
	return out
}
