package predicate

import "github.com/crrlab/crr/internal/dataset"

// Vectorized condition evaluation over a dataset.ColumnSet. Filter narrows a
// selection vector in one sweep per predicate instead of re-dispatching the
// operator per tuple: interval predicates become branch-light range scans
// over the dense numeric column, categorical equalities become a single
// dictionary lookup followed by a code comparison. The contract is exact
// row-path parity — a row survives Filter iff its tuple satisfies Sat — which
// the package property tests assert.

// Filter appends to dst (reset to length 0) the rows of sel whose cells
// satisfy the predicate, preserving order. dst may alias sel: the write
// index never passes the read index, so in-place narrowing is safe. A null
// cell satisfies no predicate, matching Sat.
func (p Predicate) Filter(cs *dataset.ColumnSet, sel []int, dst []int) []int {
	dst = dst[:0]
	if p.Categorical {
		if p.Op != Eq {
			return dst
		}
		code, ok := cs.Code(p.Attr, p.Str)
		if !ok {
			// The constant never occurs in the column; nothing matches.
			return dst
		}
		codes := cs.Codes(p.Attr)
		for _, r := range sel {
			if codes[r] == code {
				dst = append(dst, r)
			}
		}
		return dst
	}
	vals := cs.Float(p.Attr)
	c := p.Num
	if nulls := cs.Nulls(p.Attr); nulls != nil {
		// Column has nulls: a null cell stores its raw Num, so the bitmap
		// check is part of the comparison.
		null := func(r int) bool { return nulls[r>>6]&(1<<(uint(r)&63)) != 0 }
		switch p.Op {
		case Eq:
			for _, r := range sel {
				if vals[r] == c && !null(r) {
					dst = append(dst, r)
				}
			}
		case Gt:
			for _, r := range sel {
				if vals[r] > c && !null(r) {
					dst = append(dst, r)
				}
			}
		case Ge:
			for _, r := range sel {
				if vals[r] >= c && !null(r) {
					dst = append(dst, r)
				}
			}
		case Lt:
			for _, r := range sel {
				if vals[r] < c && !null(r) {
					dst = append(dst, r)
				}
			}
		case Le:
			for _, r := range sel {
				if vals[r] <= c && !null(r) {
					dst = append(dst, r)
				}
			}
		}
		return dst
	}
	switch p.Op {
	case Eq:
		for _, r := range sel {
			if vals[r] == c {
				dst = append(dst, r)
			}
		}
	case Gt:
		for _, r := range sel {
			if vals[r] > c {
				dst = append(dst, r)
			}
		}
	case Ge:
		for _, r := range sel {
			if vals[r] >= c {
				dst = append(dst, r)
			}
		}
	case Lt:
		for _, r := range sel {
			if vals[r] < c {
				dst = append(dst, r)
			}
		}
	case Le:
		for _, r := range sel {
			if vals[r] <= c {
				dst = append(dst, r)
			}
		}
	}
	return dst
}

// Filter appends to dst (reset to length 0) the rows of sel satisfying every
// predicate of the conjunction, preserving order: the first predicate
// narrows sel into dst, each further predicate narrows dst in place — one
// sweep per predicate, no per-tuple operator dispatch. The empty conjunction
// keeps every row (Sat parity). dst must not alias sel.
func (c Conjunction) Filter(cs *dataset.ColumnSet, sel []int, dst []int) []int {
	if len(c.Preds) == 0 {
		return append(dst[:0], sel...)
	}
	dst = c.Preds[0].Filter(cs, sel, dst)
	for _, p := range c.Preds[1:] {
		if len(dst) == 0 {
			return dst
		}
		dst = p.Filter(cs, dst, dst)
	}
	return dst
}
