package core

import (
	"context"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// CompactStats reports the inference applications Algorithm 2 performed.
type CompactStats struct {
	// Translations counts rules rewritten onto another rule's model through
	// the Translation inference (Lines 3–11).
	Translations int
	// Fusions counts Fusion applications (Lines 12–16); each merges two
	// rules into one.
	Fusions int
	// Implied counts rules dropped because another rule implies them by
	// Induction/Generalization (Problem 1, condition 2).
	Implied int
}

// CompactOptions tunes Algorithm 2.
type CompactOptions struct {
	// ModelTol is the parameter tolerance for deciding that two models are
	// translations of each other (slopes equal within tol) or identical
	// (all weights within tol). Zero selects modelTol, which keeps
	// compaction an exact inference; experiments on noisy fits pass a
	// tolerance matched to the data's slope-estimation error, trading a
	// bounded semantic drift for the rule-count reduction the paper reports.
	ModelTol float64
	// Telemetry receives compaction metrics (translations, fusions, implied
	// drops, solver attempts); nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Trace, when set, receives one TraceEvent per inference application
	// (Translation, Fusion, Implied drop) with deep copies of the rules
	// consumed and produced, in application order. The soundness checker
	// (internal/verify) replays these events against data to assert each
	// application was a sound inference. Tracing is synchronous; a nil hook
	// costs nothing.
	Trace func(TraceEvent)
}

// TraceKind identifies one Algorithm 2 inference application.
type TraceKind int

const (
	// TraceTranslation rewrites Pre[1] onto Pre[0]'s model (Translation +
	// Proposition 9 builtin composition); Post is the rewritten rule.
	TraceTranslation TraceKind = iota
	// TraceFusion merges Pre[1] into Pre[0] (Generalization aligning ρ, then
	// Fusion of the conditions); Post is the merged rule before the final
	// per-rule Simplify/MergeWindows(0) pass.
	TraceFusion
	// TraceImplied drops Pre[1] because Pre[0] implies it (Induction /
	// Generalization, Problem 1 condition 2); Post is nil.
	TraceImplied
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceTranslation:
		return "translation"
	case TraceFusion:
		return "fusion"
	case TraceImplied:
		return "implied"
	default:
		return "unknown"
	}
}

// TraceEvent records one inference application of Algorithm 2. Pre holds
// deep copies of the rules consumed (see the TraceKind constants for their
// roles); Post the rule produced, nil for drops.
type TraceEvent struct {
	Kind TraceKind
	Pre  []CRR
	Post *CRR
}

// cloneCRR deep-copies a rule's condition (models are immutable and shared).
func cloneCRR(r *CRR) CRR {
	out := *r
	out.Cond = r.Cond.Clone()
	out.XAttrs = append([]int(nil), r.XAttrs...)
	return out
}

// CompactCtx implements Algorithm 2 (CRR compaction with inference) and is
// the one compaction entrypoint; the benchmark (cmd/crrperf) calls it by
// this name. It first unifies regression models across rules using
// Translation — every rule whose model is a (Δ, δ)-translation of an earlier
// rule's model is rewritten onto that model, composing built-in predicates
// per Proposition 9 — then merges rules sharing a model with Generalization
// + Fusion, and finally drops rules implied by surviving rules. The result
// is semantically equivalent to the input Σ (each rewritten/merged rule is
// derived by a sound inference) and never larger. The zero CompactOptions
// selects the exact model tolerance.
//
// ctx is checked once per translation pivot and once per fusion candidate,
// so large rule sets stop compacting within one iteration of cancellation.
// The error matches both ErrCanceled and the context's own sentinel. On
// cancellation neither partial output nor partial statistics are returned:
// the result is nil and the stats are zero, matching the Discover engines'
// nil-on-cancel contract.
//
// Output order and CompactStats are invariant under permutation of the
// input rules: the work set is canonically ordered (by signature, encoded
// model, ρ and condition) before the order-sensitive translation-pivot and
// fusion-fold phases run.
func CompactCtx(ctx context.Context, rules *RuleSet, opts CompactOptions) (*RuleSet, CompactStats, error) {
	tol := opts.ModelTol
	if tol <= 0 {
		tol = modelTol
	}
	var stats CompactStats
	translations := opts.Telemetry.Counter(telemetry.MetricTranslations)
	fusions := opts.Telemetry.Counter(telemetry.MetricFusions)
	implied := opts.Telemetry.Counter(telemetry.MetricImplied)
	solverAttempts := opts.Telemetry.Counter(telemetry.MetricSolverAttempts)
	out := &RuleSet{
		Schema:   rules.Schema,
		XAttrs:   append([]int(nil), rules.XAttrs...),
		YAttr:    rules.YAttr,
		Fallback: rules.Fallback,
	}
	// Work on copies so the input set is untouched.
	work := make([]CRR, len(rules.Rules))
	for i, r := range rules.Rules {
		work[i] = r
		work[i].Cond = r.Cond.Clone()
	}
	// Canonical order: the pivot queue, the fusion fold and the implied-drop
	// winner all depend on iteration order, so sort the work set by a total
	// deterministic key first. Every downstream phase then produces the same
	// output (and the same stats) for any permutation of the input.
	sortCanonical(work)

	// Lines 3–11: rule translation. The rules pivot in canonical order; when
	// a pivot translates φ', φ' does not pivot later — all rules of its
	// model-equivalence class are already unified through the pivot (§V-B1).
	// Note φ' itself is rewritten in place rather than deleted: Line 11's
	// removal is realized by the Fusion phase folding it into the pivot's
	// rule.
	translated := make([]bool, len(work))
	for pi := range work {
		if translated[pi] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, CompactStats{}, canceled(err)
		}
		pivot := &work[pi]
		for qi := range work {
			if qi == pi {
				continue
			}
			other := &work[qi]
			if !sameSignature(pivot, other) || pivot.Model.Equal(other.Model, tol) {
				continue
			}
			solverAttempts.Inc()
			tr, ok := solveTranslationTol(pivot.Model, other.Model, tol)
			if !ok {
				continue
			}
			var pre CRR
			if opts.Trace != nil {
				pre = cloneCRR(other)
			}
			// Rewrite φ' onto the pivot's model: compose the shift into every
			// conjunction's builtin (Proposition 9), keep ρ' and ℂ'.
			// Under a loose ModelTol the two models differ slightly in
			// slope, so the pure-intercept δ would be evaluated at x = 0 and
			// drift across the condition's actual range; anchoring δ at each
			// conjunction's interval midpoint keeps the substitution error
			// bounded by |Δslope|·(interval width)/2.
			cond := other.Cond.Clone()
			for ci := range cond.Conjs {
				shift := anchoredShift(pivot, other, tr, cond.Conjs[ci])
				cond.Conjs[ci].Builtin = cond.Conjs[ci].Builtin.Add(shift)
			}
			work[qi] = CRR{
				Model:  pivot.Model,
				Rho:    other.Rho,
				Cond:   cond,
				XAttrs: other.XAttrs,
				YAttr:  other.YAttr,
			}
			stats.Translations++
			translations.Inc()
			if opts.Trace != nil {
				post := cloneCRR(&work[qi])
				opts.Trace(TraceEvent{
					Kind: TraceTranslation,
					Pre:  []CRR{cloneCRR(pivot), pre},
					Post: &post,
				})
			}
			// φ' need not pivot: its class is unified already.
			translated[qi] = true
		}
	}

	// Lines 12–16: rule fusion. All rules of one equivalence class now carry
	// the same model, so grouping by Model.Equal and folding with
	// Generalization + Fusion merges each class into a single rule.
	var fused []CRR
	for i := range work {
		if err := ctx.Err(); err != nil {
			return nil, CompactStats{}, canceled(err)
		}
		merged := false
		for j := range fused {
			if sameSignature(&fused[j], &work[i]) && fused[j].Model.Equal(work[i].Model, tol) {
				// Generalization (ρ = max) then Fusion (ℂ = ℂ ∨ ℂ'),
				// Algorithm 2 Lines 13–14, honoring the configured model
				// tolerance.
				var pre CRR
				if opts.Trace != nil {
					pre = cloneCRR(&fused[j])
				}
				rho := fused[j].Rho
				if work[i].Rho > rho {
					rho = work[i].Rho
				}
				fused[j] = CRR{
					Model:  fused[j].Model,
					Rho:    rho,
					Cond:   fused[j].Cond.Or(work[i].Cond),
					XAttrs: fused[j].XAttrs,
					YAttr:  fused[j].YAttr,
				}
				stats.Fusions++
				fusions.Inc()
				if opts.Trace != nil {
					post := cloneCRR(&fused[j])
					opts.Trace(TraceEvent{
						Kind: TraceFusion,
						Pre:  []CRR{pre, cloneCRR(&work[i])},
						Post: &post,
					})
				}
				merged = true
				break
			}
		}
		if !merged {
			fused = append(fused, work[i])
		}
	}
	// Simplify each fused condition once (simplifying on every merge would
	// make fusion cubic in the rule count), then collapse chains of touching
	// windows that share a builtin — fusion of per-part rules produces long
	// [a,b) ∨ [b,c) sequences per model.
	for i := range fused {
		fused[i].Cond, _ = fused[i].Cond.Simplify().MergeWindows(0)
	}

	// Problem 1 condition 2: drop rules implied by another surviving rule.
	keep := make([]bool, len(fused))
	for i := range keep {
		keep[i] = true
	}
	for i := range fused {
		if !keep[i] {
			continue
		}
		for j := range fused {
			if i == j || !keep[j] {
				continue
			}
			if Implies(&fused[i], &fused[j]) {
				keep[j] = false
				stats.Implied++
				implied.Inc()
				if opts.Trace != nil {
					opts.Trace(TraceEvent{
						Kind: TraceImplied,
						Pre:  []CRR{cloneCRR(&fused[i]), cloneCRR(&fused[j])},
					})
				}
			}
		}
	}
	for i := range fused {
		if keep[i] {
			out.Rules = append(out.Rules, fused[i])
		}
	}
	return out, stats, nil
}

// anchoredShift computes the y = δ builtin for rewriting other onto pivot's
// model, evaluated at an anchor point inside the conjunction's region: the
// midpoint of its interval on each X attribute when bounded, or the exact
// Translation solution when no anchor is available. At the anchor,
// δ = f_other(x*) − f_pivot(x*), so the two rules agree exactly there and
// differ elsewhere only by the (tolerated) slope gap times the distance.
func anchoredShift(pivot, other *CRR, tr regress.Translation, conj predicate.Conjunction) predicate.Builtin {
	x := make([]float64, len(pivot.XAttrs))
	anchored := false
	for i, attr := range pivot.XAttrs {
		lo, hi, ok := conj.NumericBounds(attr)
		switch {
		case ok && !math.IsInf(lo, -1) && !math.IsInf(hi, 1):
			x[i] = (lo + hi) / 2
			anchored = true
		case ok && !math.IsInf(lo, -1):
			x[i] = lo
			anchored = true
		case ok && !math.IsInf(hi, 1):
			x[i] = hi
			anchored = true
		}
	}
	if !anchored {
		return translationBuiltin(tr, pivot.XAttrs)
	}
	return predicate.ZeroBuiltin().WithYShift(other.Model.Predict(x) - pivot.Model.Predict(x))
}

// sortCanonical orders rules by a total deterministic key — regression
// signature, encoded model bytes, ρ, condition rendering — so every
// order-sensitive compaction phase sees a permutation-independent input.
// The sort is stable, so rules with fully identical keys keep their
// relative input order (they are interchangeable anyway).
func sortCanonical(rules []CRR) {
	keys := make([]string, len(rules))
	for i := range rules {
		keys[i] = canonicalKey(&rules[i])
	}
	order := make([]int, len(rules))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	sorted := make([]CRR, len(rules))
	for i, j := range order {
		sorted[i] = rules[j]
	}
	copy(rules, sorted)
}

// canonicalKey renders a rule into a comparison key covering every field
// that can influence compaction decisions. Models encode through the codec
// (deterministic JSON) when the family supports it, falling back to the
// family name plus equation rendering otherwise.
func canonicalKey(r *CRR) string {
	var b strings.Builder
	b.WriteString("y")
	b.WriteString(strconv.Itoa(r.YAttr))
	b.WriteString("|x")
	for _, a := range r.XAttrs {
		b.WriteString(strconv.Itoa(a))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	switch {
	case r.Model == nil:
		b.WriteString("nil")
	default:
		if enc, err := regress.EncodeModel(r.Model); err == nil {
			b.Write(enc)
		} else {
			b.WriteString(r.Model.Family())
		}
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(r.Rho, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(r.Cond.String())
	return b.String()
}
