package dataset

import "fmt"

// Append-friendly columnar growth. NewColumnSet builds an immutable mirror
// of a finished relation; the streaming layer instead receives rows one at a
// time and expires old ones, so it needs columnar storage that grows by
// appends without re-mirroring the whole window on every arrival.
//
// ColumnAppender is that storage: the same column layout and cell semantics
// as ColumnSet (raw Num values, first-appearance dictionary codes, NullCode
// sentinels, per-column null bitmaps), built row by row. Appending rows
// 0..n−1 and reading Cols() is bitwise-identical to NewColumnSet over a
// relation holding those rows — the code-assignment path below mirrors
// NewColumnSetAttrs' exactly (smallDict linear probe, map spill at the same
// threshold, one-entry run cache) so even the dictionaries agree.
//
// SlidingWindow composes an appender with an eviction policy: a bounded
// window whose live rows are exposed as (Cols, Sel) — exactly the inputs the
// vectorized predicate filters take — plus amortized compaction so a
// long-running stream does not grow the appender without bound.

// ColumnAppender is growable columnar storage over one schema. It is a
// single-writer structure: Append must not race with readers of Cols().
// Consumers that need a stable snapshot across concurrent appends must
// compact or copy.
type ColumnAppender struct {
	cs *ColumnSet
}

// NewColumnAppender creates empty growable columns over schema.
func NewColumnAppender(schema *Schema) *ColumnAppender {
	width := schema.Len()
	return &ColumnAppender{cs: &ColumnSet{
		Schema: schema,
		num:    make([][]float64, width),
		codes:  make([][]uint32, width),
		dicts:  make([][]string, width),
		lookup: make([]map[string]uint32, width),
		nulls:  make([][]uint64, width),
	}}
}

// Len returns the number of appended rows.
func (a *ColumnAppender) Len() int { return a.cs.rows }

// Cols returns the current columnar mirror. The returned ColumnSet shares
// the appender's storage: it is valid until the next Append, which may grow
// the backing arrays in place.
func (a *ColumnAppender) Cols() *ColumnSet { return a.cs }

// Append adds one row and returns its row index. The arity must match the
// schema, like Relation.Append; a mismatch wraps ErrArityMismatch.
func (a *ColumnAppender) Append(t Tuple) (int, error) {
	cs := a.cs
	if len(t) != cs.Schema.Len() {
		return 0, fmt.Errorf("%w: tuple arity %d, schema arity %d", ErrArityMismatch, len(t), cs.Schema.Len())
	}
	row := cs.rows
	for attr := range t {
		v := t[attr]
		if cs.Schema.Attr(attr).Kind == Numeric {
			cs.num[attr] = append(cs.num[attr], v.Num)
			if v.Null {
				a.setNull(attr, row)
			}
			continue
		}
		if v.Null {
			cs.codes[attr] = append(cs.codes[attr], NullCode)
			a.setNull(attr, row)
			continue
		}
		cs.codes[attr] = append(cs.codes[attr], a.code(attr, v.Str))
	}
	cs.rows++
	// Bitmapped columns must cover every row (IsNull indexes by row), not
	// just the last null one.
	words := (cs.rows + 63) / 64
	for attr, b := range cs.nulls {
		if b != nil && len(b) < words {
			cs.nulls[attr] = growWords(b, words)
		}
	}
	return row, nil
}

// growWords extends a bitmap to words zero words, doubling capacity so
// repeated appends amortize.
func growWords(b []uint64, words int) []uint64 {
	if cap(b) >= words {
		return b[:words]
	}
	grown := make([]uint64, words, 2*words)
	copy(grown, b)
	return grown
}

// MustAppend is Append that panics on arity mismatch; intended for internal
// rebuilds over already-validated rows (SlidingWindow.Compact) and tests.
// Load paths fed by external input must use Append and propagate the error.
func (a *ColumnAppender) MustAppend(t Tuple) int {
	row, err := a.Append(t)
	if err != nil {
		panic(err)
	}
	return row
}

// code assigns the dictionary code of s in column attr, growing the
// dictionary on first appearance. The probe strategy matches
// NewColumnSetAttrs bit for bit: linear scan up to smallDict distinct
// values, then a spilled map, so the code sequence of an appended column
// equals the batch-built one.
func (a *ColumnAppender) code(attr int, s string) uint32 {
	cs := a.cs
	code, ok := uint32(0), false
	if m := cs.lookup[attr]; m != nil {
		code, ok = m[s]
	} else {
		for j, v := range cs.dicts[attr] {
			if v == s {
				code, ok = uint32(j), true
				break
			}
		}
	}
	if !ok {
		code = uint32(len(cs.dicts[attr]))
		cs.dicts[attr] = append(cs.dicts[attr], s)
		if cs.lookup[attr] != nil {
			cs.lookup[attr][s] = code
		} else if len(cs.dicts[attr]) > smallDict {
			m := make(map[string]uint32, 2*len(cs.dicts[attr]))
			for j, v := range cs.dicts[attr] {
				m[v] = uint32(j)
			}
			cs.lookup[attr] = m
		}
	}
	return code
}

// setNull marks (attr, row) null, growing the bitmap to cover row. Columns
// without nulls keep a nil bitmap, preserving ColumnSet's branch-light
// common case.
func (a *ColumnAppender) setNull(attr, row int) {
	cs := a.cs
	if words := row>>6 + 1; len(cs.nulls[attr]) < words {
		cs.nulls[attr] = growWords(cs.nulls[attr], words)
	}
	cs.nulls[attr][row>>6] |= 1 << (uint(row) & 63)
}

// SlidingWindow is a bounded, append-only-then-expire row window over one
// schema: the ingestion substrate of stream maintenance. Rows arrive through
// Append; once the window holds capacity rows, each arrival evicts the
// oldest. Live rows are exposed columnar as (Cols, Sel) for the vectorized
// predicate filters, and as a Relation snapshot for code that wants tuples.
//
// Eviction only moves a start cursor; dead rows linger in the appender until
// Compact rebuilds it from the live rows. Append compacts automatically once
// the dead region exceeds the live one, so total storage stays O(capacity)
// and the amortized append cost O(1). Row identity across compaction is by
// window position (0 = oldest live row), not appender index — callers
// keeping per-row state should keep it in a queue aligned with positions.
type SlidingWindow struct {
	cap int
	app *ColumnAppender
	// tuples holds the live rows in arrival order (shared, not copied).
	tuples []Tuple
	// sel maps window position → appender row, strictly increasing.
	sel []int
}

// NewSlidingWindow creates an empty window holding at most capacity rows.
func NewSlidingWindow(schema *Schema, capacity int) (*SlidingWindow, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dataset: window capacity %d must be positive", capacity)
	}
	return &SlidingWindow{cap: capacity, app: NewColumnAppender(schema)}, nil
}

// Len returns the number of live rows.
func (w *SlidingWindow) Len() int { return len(w.sel) }

// Schema returns the window's schema.
func (w *SlidingWindow) Schema() *Schema { return w.app.cs.Schema }

// Append adds one row, evicting and returning the oldest when the window is
// full. expired is non-nil only when an eviction happened.
func (w *SlidingWindow) Append(t Tuple) (expired Tuple, err error) {
	if len(w.sel) == w.cap {
		expired = w.tuples[0]
		w.tuples = w.tuples[1:]
		w.sel = w.sel[1:]
	}
	// Compact before appending when dead rows outnumber live ones; the
	// rebuild touches O(live) cells, so each dead row pays for at most one
	// future compaction move.
	if dead := w.app.Len() - len(w.sel); dead > len(w.sel) && dead > 0 {
		w.Compact()
	}
	row, err := w.app.Append(t)
	if err != nil {
		return nil, err
	}
	w.tuples = append(w.tuples, t)
	w.sel = append(w.sel, row)
	return expired, nil
}

// Cols returns the columnar mirror holding the live rows (and possibly dead
// ones — always address it through Sel). Valid until the next Append.
func (w *SlidingWindow) Cols() *ColumnSet { return w.app.Cols() }

// Sel returns the live selection vector in window order (strictly
// increasing appender rows). Shared storage: read-only, valid until the next
// Append.
func (w *SlidingWindow) Sel() []int { return w.sel }

// Rows returns the live tuples in window order (shared, read-only, valid
// until the next Append).
func (w *SlidingWindow) Rows() []Tuple { return w.tuples }

// Relation snapshots the live rows as a relation (tuples shared).
func (w *SlidingWindow) Relation() *Relation {
	return &Relation{Schema: w.Schema(), Tuples: append([]Tuple(nil), w.tuples...)}
}

// Compact rebuilds the appender from the live rows, dropping dead rows and
// re-canonicalizing dictionaries to first-appearance order over the live
// rows. After Compact, Cols() is bitwise-identical to NewColumnSet over
// Relation() — dead rows can no longer pin stale dictionary entries — and
// Sel() is the identity [0, Len).
func (w *SlidingWindow) Compact() {
	fresh := NewColumnAppender(w.Schema())
	for _, t := range w.tuples {
		fresh.MustAppend(t)
	}
	w.app = fresh
	// Recycle the slice capacities without the O(cap) churn of rebuilding.
	w.sel = w.sel[:0]
	for i := range w.tuples {
		w.sel = append(w.sel, i)
	}
}
