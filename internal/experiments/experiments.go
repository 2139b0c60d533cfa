// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) on the synthetic dataset substitutes documented in
// DESIGN.md. Each experiment returns plain rows; cmd/crrbench renders them
// and bench_test.go wraps them in testing.B targets.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/crrlab/crr/internal/baseline"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/eval"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// Row is one measurement: a method evaluated at one parameter point of one
// experiment.
type Row struct {
	Experiment string
	Dataset    string
	Method     string
	Param      string  // axis label, e.g. "size" or "rho"
	Value      float64 // axis value
	Learn      time.Duration
	Eval       time.Duration
	RMSE       float64
	Rules      int
	// Discovery telemetry, populated for methods exposing core.DiscoverStats
	// (zero for baselines): models trained, Proposition 6 share hits, and
	// conditions expanded.
	Trained  int
	Shared   int
	Expanded int
}

// RenderRows writes rows as an aligned table, the output of cmd/crrbench.
func RenderRows(w io.Writer, title string, rows []Row) error {
	t := eval.NewTable(title, "dataset", "method", "param", "value", "learn", "eval", "rmse", "#rules",
		"trained", "shared", "expanded")
	for _, r := range rows {
		t.AddRowf(r.Dataset, r.Method, r.Param, r.Value, r.Learn, r.Eval, r.RMSE, r.Rules,
			r.Trained, r.Shared, r.Expanded)
	}
	return t.Render(w)
}

// CRRMethod adapts CRR discovery (Algorithm 1, optionally followed by
// Algorithm 2) to the baseline.Method interface used by every experiment.
type CRRMethod struct {
	// DisplayName overrides the method name in result rows ("CRR" default).
	DisplayName string
	// RhoM is the maximum bias ρ_M; 0 means 1.0 (the paper's default).
	RhoM float64
	// Trainer selects F1/F2/F3; nil means F1 (OLS).
	Trainer regress.Trainer
	// CondAttrs are the attributes the predicate space ranges over; empty
	// means the X attributes plus every categorical attribute (never Y).
	CondAttrs []int
	// PredSize is |ℙ| per numeric attribute; 0 selects the paper's default
	// of a predicate pair at every distinct domain value (§VI-A2).
	PredSize int
	// PredKind selects the predicate generator; Binary is the paper default.
	PredKind predicate.GeneratorKind
	// ExpertCuts feeds the Expert generator.
	ExpertCuts map[int][]float64
	// Order is the ind(C) queue ordering.
	Order core.QueueOrder
	// FuseShared fuses share hits into the existing rule's DNF during
	// search (see core.DiscoverConfig.FuseShared).
	FuseShared bool
	// Compact additionally runs Algorithm 2 after discovery.
	Compact bool
	// CompactTol is the Algorithm 2 model tolerance (0 = exact inference).
	CompactTol float64
	// DisableSharing ablates Lines 7–10 of Algorithm 1.
	DisableSharing bool
	// Seed drives random predicate generation and RandomOrder.
	Seed int64
	// Workers selects the parallel discovery engine when > 1.
	Workers int
	// Telemetry is passed through to the discovery engine.
	Telemetry *telemetry.Registry

	ctx   context.Context
	rules *core.RuleSet
	stats core.DiscoverStats
}

// SetContext attaches a context to the next Fit, which propagates it into
// the discovery engine. runMethod calls this for every method implementing
// it; baseline.Method.Fit itself stays context-free.
func (m *CRRMethod) SetContext(ctx context.Context) { m.ctx = ctx }

// Name implements baseline.Method.
func (m *CRRMethod) Name() string {
	if m.DisplayName != "" {
		return m.DisplayName
	}
	return "CRR"
}

// Fit implements baseline.Method.
func (m *CRRMethod) Fit(rel *dataset.Relation, xattrs []int, yattr int) error {
	rhoM := m.RhoM
	if rhoM == 0 {
		rhoM = 1
	}
	trainer := m.Trainer
	if trainer == nil {
		trainer = regress.LinearTrainer{}
	}
	cond := m.CondAttrs
	if len(cond) == 0 {
		cond = defaultCondAttrs(rel.Schema, xattrs, yattr)
	}
	preds := predicate.Generate(rel, cond, predicate.GeneratorConfig{
		Kind:       m.PredKind,
		Size:       m.PredSize,
		ExpertCuts: m.ExpertCuts,
		Seed:       m.Seed,
	})
	ctx := m.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := core.Discover(ctx, rel, core.WithConfig(core.DiscoverConfig{
		XAttrs:         xattrs,
		YAttr:          yattr,
		RhoM:           rhoM,
		Preds:          preds,
		Trainer:        trainer,
		Order:          m.Order,
		Seed:           m.Seed,
		DisableSharing: m.DisableSharing,
		FuseShared:     m.FuseShared,
		Workers:        m.Workers,
		Telemetry:      m.Telemetry,
	}))
	if err != nil {
		return err
	}
	m.rules, m.stats = res.Rules, res.Stats
	m.rules.SetTelemetry(m.Telemetry)
	if m.Compact {
		var cerr error
		m.rules, _, cerr = core.CompactCtx(ctx, m.rules, core.CompactOptions{
			ModelTol:  m.CompactTol,
			Telemetry: m.Telemetry,
		})
		if cerr != nil {
			return cerr
		}
		m.rules.SetTelemetry(m.Telemetry)
	}
	return nil
}

// Predict implements baseline.Method.
func (m *CRRMethod) Predict(t dataset.Tuple) (float64, bool) {
	if m.rules == nil {
		return 0, false
	}
	return m.rules.Predict(t)
}

// NumRules implements baseline.Method.
func (m *CRRMethod) NumRules() int {
	if m.rules == nil {
		return 0
	}
	return m.rules.NumRules()
}

// Rules exposes the discovered set for compaction/imputation experiments.
func (m *CRRMethod) Rules() *core.RuleSet { return m.rules }

// Stats exposes the discovery statistics.
func (m *CRRMethod) Stats() core.DiscoverStats { return m.stats }

// defaultCondAttrs returns the X attributes plus every categorical
// attribute, excluding Y (Definition 1 forbids predicates on Y).
func defaultCondAttrs(schema *dataset.Schema, xattrs []int, yattr int) []int {
	seen := make(map[int]bool)
	var out []int
	add := func(a int) {
		if a != yattr && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range xattrs {
		add(a)
	}
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Kind == dataset.Categorical {
			add(i)
		}
	}
	return out
}

// RRMethod is the paper's "RR" reference: a single regression model with no
// conditions, trained over the whole data part (Figures 5–8 compare CRR
// against RR for F1/F2/F3).
type RRMethod struct {
	DisplayName string
	Trainer     regress.Trainer

	model  regress.Model
	xattrs []int
}

// Name implements baseline.Method.
func (m *RRMethod) Name() string {
	if m.DisplayName != "" {
		return m.DisplayName
	}
	return "RR"
}

// Fit implements baseline.Method.
func (m *RRMethod) Fit(rel *dataset.Relation, xattrs []int, yattr int) error {
	trainer := m.Trainer
	if trainer == nil {
		trainer = regress.LinearTrainer{}
	}
	m.xattrs = append([]int(nil), xattrs...)
	var idxs []int
	for i := range rel.Tuples {
		idxs = append(idxs, i)
	}
	x, y, _ := core.FeatureRows(rel, idxs, xattrs, yattr)
	if len(x) == 0 {
		m.model = nil
		return nil
	}
	model, err := trainer.Train(x, y)
	if err != nil {
		return err
	}
	m.model = model
	return nil
}

// Predict implements baseline.Method.
func (m *RRMethod) Predict(t dataset.Tuple) (float64, bool) {
	if m.model == nil {
		return 0, false
	}
	row := make([]float64, len(m.xattrs))
	for i, a := range m.xattrs {
		if t[a].Null {
			return 0, false
		}
		row[i] = t[a].Num
	}
	return m.model.Predict(row), true
}

// NumRules implements baseline.Method.
func (m *RRMethod) NumRules() int {
	if m.model == nil {
		return 0
	}
	return 1
}

// runMethod fits method on train, scores on test, and returns the row. The
// context reaches methods that implement SetContext (CRRMethod does), so
// canceling it stops a discovery-backed fit mid-mine; discovery statistics
// are copied into the row for methods exposing them.
func runMethod(ctx context.Context, exp, ds string, method baseline.Method, train, test *dataset.Relation,
	xattrs []int, yattr int, param string, value float64) (Row, error) {
	if err := ctx.Err(); err != nil {
		return Row{}, fmt.Errorf("%s/%s %s: %w", exp, ds, method.Name(), err)
	}
	if sc, ok := method.(interface{ SetContext(context.Context) }); ok {
		sc.SetContext(ctx)
	}
	var fitErr error
	learn := eval.Timed(func() { fitErr = method.Fit(train, xattrs, yattr) })
	if fitErr != nil {
		return Row{}, fmt.Errorf("%s/%s %s: %w", exp, ds, method.Name(), fitErr)
	}
	var idxs []int
	for i := range train.Tuples {
		idxs = append(idxs, i)
	}
	_, y, _ := core.FeatureRows(train, idxs, xattrs, yattr)
	fallback := mean(y)
	rmse, evalTime := eval.Score(method, test, yattr, fallback)
	row := Row{
		Experiment: exp,
		Dataset:    ds,
		Method:     method.Name(),
		Param:      param,
		Value:      value,
		Learn:      learn,
		Eval:       evalTime,
		RMSE:       rmse,
		Rules:      method.NumRules(),
	}
	if sp, ok := method.(interface{ Stats() core.DiscoverStats }); ok {
		st := sp.Stats()
		row.Trained = st.ModelsTrained
		row.Shared = st.ShareHits
		row.Expanded = st.NodesExpanded
	}
	return row, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// scaled returns max(min, round(n·scale)); experiments accept a scale in
// (0, 1] so tests and quick benches can shrink the paper's sizes.
func scaled(n int, scale float64, min int) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// WriteRowsCSV writes rows in machine-readable CSV, for plotting the
// figures outside Go, preceded by the header row when header is set so a
// sweep over several experiments can write a single header. Durations are
// emitted in seconds.
func WriteRowsCSV(w io.Writer, rows []Row, header bool) error {
	if header {
		if _, err := io.WriteString(w, "experiment,dataset,method,param,value,learn_s,eval_s,rmse,rules,trained,shared,expanded\n"); err != nil {
			return err
		}
	}
	for _, r := range rows {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%g,%g,%g,%g,%d,%d,%d,%d\n",
			r.Experiment, r.Dataset, r.Method, r.Param, r.Value,
			r.Learn.Seconds(), r.Eval.Seconds(), r.RMSE, r.Rules,
			r.Trained, r.Shared, r.Expanded)
		if err != nil {
			return err
		}
	}
	return nil
}

// SameRules reports structural identity of two rule sets: same rule count
// and order, same conditions and bias, and model weights within tol. It is
// the acceptance check of the hot path — the fast paths must not change
// discovery output.
func SameRules(a, b *core.RuleSet, tol float64) bool {
	if a.NumRules() != b.NumRules() {
		return false
	}
	for i := range a.Rules {
		ra, rb := &a.Rules[i], &b.Rules[i]
		if ra.Cond.String() != rb.Cond.String() {
			return false
		}
		if d := ra.Rho - rb.Rho; d > tol || d < -tol {
			return false
		}
		if ra.Model == nil || rb.Model == nil || !ra.Model.Equal(rb.Model, tol) {
			return false
		}
	}
	return true
}
