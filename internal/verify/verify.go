// Package verify is the differential-testing and invariant-checking
// subsystem of the CRR engine. The repo carries several independent
// execution paths that must agree — one vs several discovery workers, the
// columnar scan kernels vs tuple-at-a-time references, the interval-indexed
// Predict vs a linear rule scan, in-process classification vs the served
// HTTP endpoints, and the codec round-trip — plus a compaction pass whose
// contract is "every rewrite is a sound inference". This package checks all
// of it mechanically, and holds the tuple-at-a-time references the
// production paths no longer carry:
//
//   - Cross-engine oracles: one- and several-worker discovery checked for
//     coverage and rule validity, the discovery kernels checked bitwise
//     against tuple references along the best-split tree
//     (KernelsVsTuples), Predict/PredictBatch/Violations/Explain
//     columnar-vs-rowwise, and served endpoints vs in-process results.
//   - Inference soundness: every CompactStats application (Translation,
//     Fusion, Implied drop) is captured through CompactOptions.Trace and
//     replayed against the data, asserting the paper's soundness conditions
//     (Propositions 2–9): identical coverage, bias within ρ (plus the
//     documented tolerance-induced drift bound), Implies consistency per
//     Definition 2.
//   - Metamorphic invariants: row permutation, row duplication, attribute
//     renaming and unit translation (x+Δ, y+δ) must leave discovered rule
//     semantics invariant; violations come with a minimized reproducer.
//
// cmd/crrverify drives it across the five evaluation generators; the
// library surface is reusable from tests and fuzz targets. Telemetry counts
// every oracle under verify.oracles_run and every failure under
// verify.divergences.
package verify

import (
	"context"
	"fmt"
	"math"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// Target is one dataset under verification: a relation plus the regression
// signature and discovery parameters the oracles run with. cmd/crrverify
// builds targets from the experiment dataset specs; tests and fuzz targets
// can build their own.
type Target struct {
	Name string
	Rel  *dataset.Relation
	// XAttrs/YAttr is the regression signature, CondAttrs feed the
	// predicate generator.
	XAttrs    []int
	YAttr     int
	CondAttrs []int
	// RhoM is the discovery bias bound ρ_M.
	RhoM float64
	// CompactTol is the Algorithm 2 model tolerance verified in the
	// loose-tolerance soundness pass (0 skips that pass; the exact pass
	// always runs).
	CompactTol float64
}

// Options tunes a verification run.
type Options struct {
	// Workers is the worker count of the discovery matrix's several-worker
	// mode; default 4.
	Workers int
	// Seed drives the deterministic row permutation of the metamorphic
	// suite.
	Seed int64
	// PredSize is the per-attribute predicate budget (GeneratorConfig.Size);
	// default 64, matching the hot-path comparison harness.
	PredSize int
	// SkipServe disables the served-endpoint parity oracles (they spin up an
	// httptest server per target).
	SkipServe bool
	// SkipMetamorphic disables the metamorphic suite (it re-runs discovery
	// several times per target).
	SkipMetamorphic bool
	// Telemetry receives verify.oracles_run / verify.divergences; nil
	// disables instrumentation.
	Telemetry *telemetry.Registry
	// Logf, when set, receives one progress line per oracle family.
	Logf func(format string, args ...any)
}

// Divergence is one failed oracle check.
type Divergence struct {
	Dataset string `json:"dataset"`
	// Oracle names the check that failed, e.g. "discover/kernels-vs-tuples"
	// or "metamorphic/permutation".
	Oracle string `json:"oracle"`
	// Detail describes the first observed disagreement.
	Detail string `json:"detail"`
	// Reproducer, when present, describes a minimized failing input.
	Reproducer string `json:"reproducer,omitempty"`
}

// DatasetReport is the verification outcome for one target.
type DatasetReport struct {
	Dataset        string       `json:"dataset"`
	Rows           int          `json:"rows"`
	Rules          int          `json:"rules"`
	CompactedRules int          `json:"compacted_rules"`
	OraclesRun     int          `json:"oracles_run"`
	SoundnessApps  int          `json:"soundness_applications"`
	Divergences    []Divergence `json:"divergences,omitempty"`
}

// Report aggregates a verification run.
type Report struct {
	Datasets    []DatasetReport `json:"datasets"`
	OraclesRun  int             `json:"oracles_run"`
	Divergences int             `json:"divergences"`
}

// Failed reports whether any oracle diverged.
func (r *Report) Failed() bool { return r.Divergences > 0 }

// runner carries the per-run state: options, telemetry handles and the
// report section of the target currently being verified.
type runner struct {
	opts    Options
	oracles *telemetry.Counter
	diverg  *telemetry.Counter
	cur     *DatasetReport
	target  Target
}

// pass records one executed oracle check that agreed.
func (rn *runner) pass() {
	rn.cur.OraclesRun++
	rn.oracles.Inc()
}

// fail records one executed oracle check that diverged.
func (rn *runner) fail(oracle, detail string) {
	rn.failRepro(oracle, detail, "")
}

// failRepro is fail carrying a minimized reproducer description.
func (rn *runner) failRepro(oracle, detail, repro string) {
	rn.cur.OraclesRun++
	rn.oracles.Inc()
	rn.diverg.Inc()
	rn.cur.Divergences = append(rn.cur.Divergences, Divergence{
		Dataset:    rn.target.Name,
		Oracle:     oracle,
		Detail:     detail,
		Reproducer: repro,
	})
}

// check records one oracle check whose detail is empty on agreement.
func (rn *runner) check(oracle, detail string) {
	if detail == "" {
		rn.pass()
		return
	}
	rn.fail(oracle, detail)
}

func (rn *runner) logf(format string, args ...any) {
	if rn.opts.Logf != nil {
		rn.opts.Logf(format, args...)
	}
}

// Run verifies every target and returns the aggregated report. Divergences
// are reported, not returned as errors; the error return covers hard
// failures only (cancellation, discovery refusing a target).
func Run(ctx context.Context, targets []Target, opts Options) (*Report, error) {
	if opts.Workers <= 1 {
		opts.Workers = 4
	}
	if opts.PredSize <= 0 {
		opts.PredSize = 64
	}
	rn := &runner{
		opts:    opts,
		oracles: opts.Telemetry.Counter(telemetry.MetricVerifyOraclesRun),
		diverg:  opts.Telemetry.Counter(telemetry.MetricVerifyDivergences),
	}
	report := &Report{}
	for _, t := range targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dr, err := rn.runTarget(ctx, t)
		if err != nil {
			return nil, fmt.Errorf("verify %s: %w", t.Name, err)
		}
		report.Datasets = append(report.Datasets, *dr)
		report.OraclesRun += dr.OraclesRun
		report.Divergences += len(dr.Divergences)
	}
	return report, nil
}

// runTarget runs the full oracle matrix on one target.
func (rn *runner) runTarget(ctx context.Context, t Target) (*DatasetReport, error) {
	rn.target = t
	rn.cur = &DatasetReport{Dataset: t.Name, Rows: t.Rel.Len()}

	rn.logf("[%s] discovery matrix (seq + par engines, kernel oracle)", t.Name)
	rules, err := rn.discoveryMatrix(ctx, t)
	if err != nil {
		return nil, err
	}
	rn.cur.Rules = rules.NumRules()

	rn.logf("[%s] classification oracles (discovered set)", t.Name)
	rn.classificationOracles(t, rules, "discovered")
	rn.codecOracle(t, rules, "discovered")

	rn.logf("[%s] out-of-core store parity", t.Name)
	if err := rn.colstoreOracle(ctx, t, rules); err != nil {
		return nil, err
	}

	rn.logf("[%s] windowed stream maintenance", t.Name)
	if err := rn.streamOracle(t, rules); err != nil {
		return nil, err
	}

	rn.logf("[%s] induction strategy oracles", t.Name)
	if err := rn.strategyOracles(ctx, t); err != nil {
		return nil, err
	}

	rn.logf("[%s] compaction soundness", t.Name)
	compacted, err := rn.soundness(ctx, t, rules)
	if err != nil {
		return nil, err
	}
	rn.cur.CompactedRules = compacted.NumRules()
	rn.classificationOracles(t, compacted, "compacted")
	rn.codecOracle(t, compacted, "compacted")

	if !rn.opts.SkipServe {
		rn.logf("[%s] serve parity", t.Name)
		if err := rn.serveOracles(t, rules, "discovered"); err != nil {
			return nil, err
		}
		if err := rn.serveOracles(t, compacted, "compacted"); err != nil {
			return nil, err
		}
		rn.logf("[%s] cluster parity (router passthrough)", t.Name)
		if err := rn.clusterOracles(t, rules, "discovered"); err != nil {
			return nil, err
		}
		if err := rn.clusterOracles(t, compacted, "compacted"); err != nil {
			return nil, err
		}
	}

	if !rn.opts.SkipMetamorphic {
		rn.logf("[%s] metamorphic invariants", t.Name)
		if err := rn.metamorphic(ctx, t); err != nil {
			return nil, err
		}
	}
	return rn.cur, nil
}

// baseConfig assembles the discovery configuration the oracles share: the
// paper-default binary predicate space over the target's condition
// attributes and an OLS trainer, with one worker.
func baseConfig(t Target, rel *dataset.Relation, predSize int) core.DiscoverConfig {
	preds := predicate.Generate(rel, t.CondAttrs, predicate.GeneratorConfig{
		Kind: predicate.Binary, Size: predSize,
	})
	return core.DiscoverConfig{
		XAttrs:  t.XAttrs,
		YAttr:   t.YAttr,
		RhoM:    t.RhoM,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}
}

// trainableRows returns the indices of rows whose X and Y cells are all
// non-null and finite — the rows Problem 1 requires Σ to cover.
func trainableRows(rel *dataset.Relation, xattrs []int, yattr int) []int {
	trainable := func(v dataset.Value) bool {
		return !v.Null && !math.IsNaN(v.Num) && !math.IsInf(v.Num, 0)
	}
	var out []int
rows:
	for i, tp := range rel.Tuples {
		if !trainable(tp[yattr]) {
			continue
		}
		for _, a := range xattrs {
			if !trainable(tp[a]) {
				continue rows
			}
		}
		out = append(out, i)
	}
	return out
}

// bitsEqual reports bitwise float equality (NaN equals NaN; ±0 differ).
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
