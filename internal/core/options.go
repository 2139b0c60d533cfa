package core

import (
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// DefaultMaxBias is the maximum bias ρ_M the options API falls back to — the
// paper's default parameterization.
const DefaultMaxBias = 1.0

// DiscoverOption configures Discover. Options are applied in order over a
// zero DiscoverConfig; WithConfig replaces the whole configuration and is
// therefore usually first when mixed with field options.
type DiscoverOption func(*DiscoverConfig)

// WithConfig replaces the entire configuration; later options still apply
// on top.
func WithConfig(cfg DiscoverConfig) DiscoverOption {
	return func(c *DiscoverConfig) { *c = cfg }
}

// WithSignature sets the regression signature f : X → Y.
func WithSignature(xattrs []int, yattr int) DiscoverOption {
	return func(c *DiscoverConfig) {
		c.XAttrs = append([]int(nil), xattrs...)
		c.YAttr = yattr
	}
}

// WithXAttrs sets the regression input attributes X.
func WithXAttrs(attrs ...int) DiscoverOption {
	return func(c *DiscoverConfig) { c.XAttrs = append([]int(nil), attrs...) }
}

// WithTarget sets the regression target attribute Y.
func WithTarget(yattr int) DiscoverOption {
	return func(c *DiscoverConfig) { c.YAttr = yattr }
}

// WithMaxBias sets the maximum bias ρ_M; non-positive values fall back to
// DefaultMaxBias.
func WithMaxBias(rhoM float64) DiscoverOption {
	return func(c *DiscoverConfig) { c.RhoM = rhoM }
}

// WithPredicates sets the predicate space ℙ explicitly. Passing an empty
// non-nil slice makes Discover fail with ErrNoPredicates; omitting the
// option (or passing nil) generates the paper-default space over the X
// attributes plus every categorical attribute.
func WithPredicates(preds []predicate.Predicate) DiscoverOption {
	return func(c *DiscoverConfig) { c.Preds = preds }
}

// WithTrainer selects the model family trainer (default: OLS, family F1).
func WithTrainer(t regress.Trainer) DiscoverOption {
	return func(c *DiscoverConfig) { c.Trainer = t }
}

// WithWorkers sets the discovery worker count: 0 or 1 runs the sequential
// engine (exact ind(C) queue ordering), n > 1 the parallel engine with n
// workers, and negative values select one worker per CPU.
func WithWorkers(n int) DiscoverOption {
	return func(c *DiscoverConfig) { c.Workers = n }
}

// WithStrategy selects the induction strategy run over the discovery
// substrate; nil (the default) selects the built-in lattice walk
// (Algorithm 1). See the Strategy interface for the contract and the
// internal/induction package for the grow/prune strategy.
func WithStrategy(s Strategy) DiscoverOption {
	return func(c *DiscoverConfig) { c.Strategy = s }
}

// WithTelemetry attaches a metrics registry; the engine reports conditions
// expanded, models trained/shared, share tests, queue depth and phase
// durations into it. A nil registry disables instrumentation (the default).
func WithTelemetry(r *telemetry.Registry) DiscoverOption {
	return func(c *DiscoverConfig) { c.Telemetry = r }
}

// WithOrder selects the ind(C) queue ordering (sequential engine only).
func WithOrder(o QueueOrder) DiscoverOption {
	return func(c *DiscoverConfig) { c.Order = o }
}

// WithSeed seeds RandomOrder.
func WithSeed(seed int64) DiscoverOption {
	return func(c *DiscoverConfig) { c.Seed = seed }
}

// WithSharing toggles model sharing (Lines 7–10 of Algorithm 1); disabling
// it is the ablation of §VI-B1.
func WithSharing(enabled bool) DiscoverOption {
	return func(c *DiscoverConfig) { c.DisableSharing = !enabled }
}

// WithFuseShared applies Fusion eagerly during search (see
// DiscoverConfig.FuseShared).
func WithFuseShared(enabled bool) DiscoverOption {
	return func(c *DiscoverConfig) { c.FuseShared = enabled }
}

// WithMinSupport sets the smallest part size still split further; 0 selects
// len(XAttrs)+2.
func WithMinSupport(n int) DiscoverOption {
	return func(c *DiscoverConfig) { c.MinSupport = n }
}

// WithMaxNodes caps queue expansions; 0 selects 64·|D| + 4096.
func WithMaxNodes(n int) DiscoverOption {
	return func(c *DiscoverConfig) { c.MaxNodes = n }
}

// WithSeedModels pre-populates the shared model set F (incremental reuse).
func WithSeedModels(models []regress.Model) DiscoverOption {
	return func(c *DiscoverConfig) { c.SeedModels = append([]regress.Model(nil), models...) }
}

// WithProp8Splits enables Proposition 8's multi-cut split sizing.
func WithProp8Splits(enabled bool) DiscoverOption {
	return func(c *DiscoverConfig) { c.Prop8Splits = enabled }
}

// Validate normalizes the configuration in place — nil Trainer becomes OLS
// (family F1), non-positive RhoM becomes DefaultMaxBias — and checks the
// invariants that do not need the relation: Y ∉ X (ErrTrivialTarget) and no
// predicate on Y (ErrPredicateOnTarget). Relation-dependent checks (numeric
// target, non-empty data) happen inside Discover.
func (c *DiscoverConfig) Validate() error {
	if c.Trainer == nil {
		c.Trainer = regress.LinearTrainer{}
	}
	if c.RhoM <= 0 {
		c.RhoM = DefaultMaxBias
	}
	for _, a := range c.XAttrs {
		if a == c.YAttr {
			return ErrTrivialTarget
		}
	}
	for _, p := range c.Preds {
		if p.Attr == c.YAttr {
			return ErrPredicateOnTarget
		}
	}
	return nil
}

// defaultPredicateAttrs returns the attributes the auto-generated predicate
// space ranges over: the X attributes plus every categorical attribute,
// excluding Y (Definition 1 forbids predicates on the target).
func defaultPredicateAttrs(schema *dataset.Schema, xattrs []int, yattr int) []int {
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
