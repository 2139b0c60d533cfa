package core

import (
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/regress"
)

// DefaultMaxBias is the maximum bias ρ_M that Validate substitutes for a
// non-positive RhoM — the paper's default parameterization.
const DefaultMaxBias = 1.0

// DiscoverOption configures Discover and DiscoverColumns. WithConfig is its
// only constructor: a DiscoverConfig is the one way to configure discovery.
// The option type and the variadic entrypoints stay because the benchmark
// (cmd/crrperf) calls them in this form.
type DiscoverOption func(*DiscoverConfig)

// WithConfig supplies the discovery configuration. When several are passed,
// the last one wins.
func WithConfig(cfg DiscoverConfig) DiscoverOption {
	return func(c *DiscoverConfig) { *c = cfg }
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
