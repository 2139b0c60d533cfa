package core

import (
	"errors"
	"fmt"
)

// Typed sentinel errors for the discovery engine. Every failure surfaced by
// Discover, DiscoverColumns and CompactCtx wraps one of these, so callers
// branch with errors.Is instead of string matching.
var (
	// ErrTrivialTarget reports Y ∈ X, which would only yield trivially
	// satisfiable rules (Reflexivity, Proposition 1).
	ErrTrivialTarget = errors.New("core: Y ∈ X would only yield trivial rules (Reflexivity)")
	// ErrPredicateOnTarget reports a predicate space mentioning the target
	// attribute, which Definition 1 forbids.
	ErrPredicateOnTarget = errors.New("core: predicate space mentions the target attribute")
	// ErrNonNumericTarget reports a categorical regression target.
	ErrNonNumericTarget = errors.New("core: regression target must be numeric")
	// ErrEmptyRelation reports a relation with no tuples; Discover refuses
	// it rather than returning a vacuous rule set.
	ErrEmptyRelation = errors.New("core: relation has no tuples")
	// ErrNoPredicates reports an explicitly empty (non-nil) predicate space
	// (leave DiscoverConfig.Preds nil to auto-generate ℙ instead).
	ErrNoPredicates = errors.New("core: empty predicate space")
	// ErrCanceled reports a discovery or compaction run cut short by context
	// cancellation or deadline. It wraps the context's own error, so
	// errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) also hold.
	ErrCanceled = errors.New("core: run canceled")
)

// canceled wraps a context error so both ErrCanceled and the context's own
// sentinel match under errors.Is.
func canceled(cause error) error {
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}
