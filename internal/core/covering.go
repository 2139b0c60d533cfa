package core

import "github.com/crrlab/crr/internal/dataset"

// CoveringEntry addresses the conjunction through which one rule covers a
// tuple: Rule indexes RuleSet.Rules, Conj the rule condition's matching
// conjunction. Conj is the rule's FIRST matching conjunction, so the shifts
// read from it equal the ones Predict would apply.
type CoveringEntry struct {
	Rule, Conj int
}

func (a CoveringEntry) less(b CoveringEntry) bool {
	return a.Rule < b.Rule || (a.Rule == b.Rule && a.Conj < b.Conj)
}

// Covering returns every rule covering t — the row-routing primitive of
// stream maintenance, which must credit an arriving or expiring row to the
// sufficient statistics of ALL rules whose condition selects it, not just
// the first one Predict would use. Entries come back in ascending rule
// order, one per covering rule (its first matching conjunction, matching
// Predict's semantics). Tuples with a null X cell are covered by no rule,
// mirroring the Predict null contract.
//
// Covering and Predict share one walk over the lazily built interval index:
// candidates are the tuple's grid bucket merged with the
// unbounded-conjunction overflow list, so for discovery's disjoint condition
// windows the cost is O(1) candidates plus the overflow, not a scan of every
// disjunct. dst is recycled when non-nil, so steady-state routing does not
// allocate.
func (s *RuleSet) Covering(t dataset.Tuple, dst []CoveringEntry) []CoveringEntry {
	return s.index().walk(s, t, dst[:0], false)
}
