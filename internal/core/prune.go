package core

import (
	"math"
	"sort"
	"strings"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// This file implements the post-pruning the paper leaves as future work
// (§VII): "pruning … to the CRRs discovered by Algorithm 1 to avoid
// overfitting of conditions". Adjacent condition windows are merged and
// refit, undoing over-refinement caused by a too-small ρ_M or an
// over-rich predicate space. The paper proposes a χ² test; a merge here is
// kept only when it keeps Problem 1's bound instead — the joint refit's
// maximum error over the trainable rows the merged condition selects is at
// most ρ_M — so every rule Prune creates holds the bound discovery
// promised.

// PruneOptions configures Prune.
type PruneOptions struct {
	// RhoM is the bias bound a merged rule must keep; non-positive selects
	// DefaultMaxBias, as in discovery.
	RhoM float64
	// Trainer refits merged parts; nil means OLS.
	Trainer regress.Trainer
}

// PruneStats reports the pruning work.
type PruneStats struct {
	Tested int // adjacent pairs tested
	Merged int // merges applied
}

// Prune merges adjacent single-conjunction windows of a discovered set on
// the rule set's first X attribute while the joint refit over cols stays
// within opts.RhoM; the merged rule's ρ is that refit's maximum error.
// Rules with multi-conjunction conditions, distinct categorical contexts or
// non-adjacent windows, and windows no merge absorbs, pass through
// unchanged (a forced rule published above ρ_M included). Run it on
// Algorithm 1's output (before CompactCtx) — compaction reorganizes
// conditions into DNFs that no longer expose adjacency.
func Prune(cols *dataset.ColumnSet, s *RuleSet, opts PruneOptions) (*RuleSet, PruneStats, error) {
	cfg := DiscoverConfig{XAttrs: s.XAttrs, YAttr: s.YAttr, RhoM: opts.RhoM, Trainer: opts.Trainer}
	if err := cfg.Validate(); err != nil {
		return nil, PruneStats{}, err
	}
	sub, err := newSubstrate(cols, &cfg)
	if err != nil {
		return nil, PruneStats{}, err
	}
	attr := -1
	if len(s.XAttrs) > 0 {
		attr = s.XAttrs[0]
	}

	type window struct {
		rule    int
		lo, hi  float64
		context string // categorical context + non-attr numeric bounds
		conj    predicate.Conjunction
	}
	var windows []window
	out := &RuleSet{
		Schema:   s.Schema,
		XAttrs:   append([]int(nil), s.XAttrs...),
		YAttr:    s.YAttr,
		Fallback: s.Fallback,
	}
	var kept []CRR // rules not participating in window merging
	for ri := range s.Rules {
		r := &s.Rules[ri]
		// Multi-conjunction rules don't expose adjacency; single-conjunction
		// rules qualify regardless of builtins — a merge refits the merged
		// part from data, so the shift the old rule carried is irrelevant.
		if len(r.Cond.Conjs) != 1 {
			kept = append(kept, *r)
			continue
		}
		conj := r.Cond.Conjs[0]
		lo, hi, ok := conj.NumericBounds(attr)
		if !ok || math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			kept = append(kept, *r)
			continue
		}
		windows = append(windows, window{
			rule: ri, lo: lo, hi: hi,
			context: contextKey(conj, attr),
			conj:    conj,
		})
	}
	sort.Slice(windows, func(i, j int) bool {
		if windows[i].context != windows[j].context {
			return windows[i].context < windows[j].context
		}
		return windows[i].lo < windows[j].lo
	})

	var st PruneStats
	var merged []CRR
	var rows []int
	i := 0
	for i < len(windows) {
		cur := windows[i]
		rule := s.Rules[cur.rule]
		// Greedily absorb following adjacent windows of the same context.
		for i+1 < len(windows) {
			next := windows[i+1]
			if next.context != cur.context || next.lo != cur.hi {
				break
			}
			st.Tested++
			conj := mergeWindows(cur.conj, next.conj, attr)
			rows = conj.Filter(cols, sub.TrainableRows(), rows)
			if len(rows) == 0 {
				break
			}
			m, err := sub.Fit(rows)
			if err != nil {
				return nil, st, err
			}
			rho := sub.MaxAbsError(m, rows)
			if !(rho <= cfg.RhoM) {
				break
			}
			st.Merged++
			cur.conj, cur.hi = conj, next.hi
			rule = CRR{
				Model:  m,
				Rho:    rho,
				Cond:   predicate.NewDNF(conj),
				XAttrs: out.XAttrs,
				YAttr:  s.YAttr,
			}
			i++
		}
		merged = append(merged, rule)
		i++
	}
	out.Rules = append(merged, kept...)
	return out, st, nil
}

// contextKey renders a conjunction's predicates excluding the window
// attribute, so only same-context windows merge.
func contextKey(conj predicate.Conjunction, attr int) string {
	var parts []string
	for _, p := range conj.Preds {
		if p.Attr != attr {
			parts = append(parts, p.String())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// mergeWindows builds the conjunction covering both windows: the shared
// context plus a's lower bounds and b's upper bounds on attr.
func mergeWindows(a, b predicate.Conjunction, attr int) predicate.Conjunction {
	out := predicate.NewConjunction()
	for _, p := range a.Preds {
		if p.Attr != attr || p.Op == predicate.Gt || p.Op == predicate.Ge {
			out.Preds = append(out.Preds, p)
		}
	}
	for _, p := range b.Preds {
		if p.Attr == attr && (p.Op == predicate.Lt || p.Op == predicate.Le) {
			out.Preds = append(out.Preds, p)
		}
	}
	return out.Normalize()
}
