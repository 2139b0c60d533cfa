package dataset

import "sort"

// Columnar execution substrate. A ColumnSet is the typed, column-major
// mirror of a Relation, built once and shared by every layer that evaluates
// predicates over many rows: numeric attributes become one contiguous
// []float64 each, categorical attributes are dictionary-coded into []uint32,
// and nulls live in per-column bitmaps. A View pairs a ColumnSet with a
// selection vector, so narrowing a part never copies tuples — the vectorized
// predicate filters (internal/predicate) shrink the selection in place.
//
// The cell values stored are the raw Value fields (Num / Str) of the source
// tuples, NOT a normalized encoding: a null numeric cell keeps whatever Num
// it carried (0 for Null()) and a null categorical cell maps to NullCode.
// That choice makes every columnar consumer bitwise-identical to the
// tuple-at-a-time reference path it replaces, which the parity property
// tests and crrverify's oracles assert.

// NullCode marks a null categorical cell in a code column. It is never a
// valid dictionary code, so equality filters skip nulls without a bitmap
// check.
const NullCode = ^uint32(0)

// smallDict is the dictionary size up to which code assignment and Code
// probes use linear scans instead of a hash map.
const smallDict = 16

// ColumnSet is the columnar mirror of one Relation snapshot. It is immutable
// after construction and safe for concurrent readers. Mutating the source
// relation afterwards (imputation fills, appends) is not reflected; rebuild.
type ColumnSet struct {
	Schema *Schema
	rows   int
	// num[attr] holds the dense numeric column (nil for categorical attrs).
	num [][]float64
	// codes[attr] holds dictionary codes (nil for numeric attrs); dicts[attr]
	// maps code → value in first-appearance order.
	codes  [][]uint32
	dicts  [][]string
	lookup []map[string]uint32
	// nulls[attr] is a 1-bit-per-row null bitmap, nil when the column has no
	// null cell — the common case, which keeps numeric filters branch-light.
	nulls [][]uint64
}

// NewColumnSet builds the columnar mirror of rel, one column pass per
// attribute.
func NewColumnSet(rel *Relation) *ColumnSet {
	return NewColumnSetAttrs(rel, nil)
}

// NewColumnSetAttrs builds a columnar mirror holding only the listed
// attributes — the classification fast path, where a wide relation is served
// by rules that read a handful of columns. attrs may repeat and come in any
// order; nil means every attribute. Unlisted columns stay nil: filtering or
// gathering on one panics, so callers must list every attribute their
// predicates and models touch.
func NewColumnSetAttrs(rel *Relation, attrs []int) *ColumnSet {
	n := rel.Len()
	width := rel.Schema.Len()
	cs := &ColumnSet{
		Schema: rel.Schema,
		rows:   n,
		num:    make([][]float64, width),
		codes:  make([][]uint32, width),
		dicts:  make([][]string, width),
		lookup: make([]map[string]uint32, width),
		nulls:  make([][]uint64, width),
	}
	want := func(int) bool { return true }
	if attrs != nil {
		listed := make([]bool, width)
		for _, a := range attrs {
			listed[a] = true
		}
		want = func(a int) bool { return listed[a] }
	}
	// One pass per column, not per row: sequential writes into the dense
	// column, the kind branch hoisted out of the cell loop.
	for a := 0; a < width; a++ {
		if !want(a) {
			continue
		}
		if rel.Schema.Attr(a).Kind == Numeric {
			col := make([]float64, n)
			cs.num[a] = col
			for i, t := range rel.Tuples {
				v := t[a]
				col[i] = v.Num
				if v.Null {
					cs.setNull(a, i)
				}
			}
			continue
		}
		codes := make([]uint32, n)
		cs.codes[a] = codes
		// The dictionary is probed by linear scan while it stays small —
		// string hashing costs more than a handful of compares — and spills
		// into a map only past smallDict distinct values. A one-entry cache
		// of the previous cell skips both for runs of one category.
		var dict []string
		var lookup map[string]uint32
		lastStr, lastCode, lastOK := "", uint32(0), false
		for i, t := range rel.Tuples {
			v := t[a]
			if v.Null {
				cs.setNull(a, i)
				codes[i] = NullCode
				continue
			}
			if lastOK && v.Str == lastStr {
				codes[i] = lastCode
				continue
			}
			code, ok := uint32(0), false
			if lookup != nil {
				code, ok = lookup[v.Str]
			} else {
				for j, s := range dict {
					if s == v.Str {
						code, ok = uint32(j), true
						break
					}
				}
			}
			if !ok {
				code = uint32(len(dict))
				dict = append(dict, v.Str)
				if lookup != nil {
					lookup[v.Str] = code
				} else if len(dict) > smallDict {
					lookup = make(map[string]uint32, 2*len(dict))
					for j, s := range dict {
						lookup[s] = uint32(j)
					}
				}
			}
			codes[i] = code
			lastStr, lastCode, lastOK = v.Str, code, true
		}
		cs.dicts[a] = dict
		cs.lookup[a] = lookup
	}
	return cs
}

func (cs *ColumnSet) setNull(attr, row int) {
	if cs.nulls[attr] == nil {
		cs.nulls[attr] = make([]uint64, (cs.rows+63)/64)
	}
	cs.nulls[attr][row>>6] |= 1 << (uint(row) & 63)
}

// Len returns the number of rows.
func (cs *ColumnSet) Len() int { return cs.rows }

// Float returns the dense numeric column of attr (nil for categorical
// attributes). Null cells keep the Num their Value carried; check IsNull.
// The returned slice is shared — callers must not modify it.
func (cs *ColumnSet) Float(attr int) []float64 { return cs.num[attr] }

// Codes returns the dictionary-code column of attr (nil for numeric
// attributes). Null cells hold NullCode. Shared; do not modify.
func (cs *ColumnSet) Codes(attr int) []uint32 { return cs.codes[attr] }

// Dict returns attr's code → value dictionary in first-appearance order.
func (cs *ColumnSet) Dict(attr int) []string { return cs.dicts[attr] }

// Code returns the dictionary code of value s in column attr; ok is false
// when s never occurs in the column (no row can match an equality on it).
func (cs *ColumnSet) Code(attr int, s string) (uint32, bool) {
	if m := cs.lookup[attr]; m != nil {
		code, ok := m[s]
		return code, ok
	}
	for j, v := range cs.dicts[attr] {
		if v == s {
			return uint32(j), true
		}
	}
	return 0, false
}

// HasNulls reports whether column attr contains any null cell.
func (cs *ColumnSet) HasNulls(attr int) bool { return cs.nulls[attr] != nil }

// Nulls returns attr's null bitmap (1 bit per row, LSB-first within each
// word), or nil when the column has no nulls. Shared; do not modify.
func (cs *ColumnSet) Nulls(attr int) []uint64 { return cs.nulls[attr] }

// IsNull reports whether the cell (attr, row) is null.
func (cs *ColumnSet) IsNull(attr, row int) bool {
	b := cs.nulls[attr]
	return b != nil && b[row>>6]&(1<<(uint(row)&63)) != 0
}

// Domain returns the sorted distinct non-null, non-NaN values of numeric
// column attr — the columnar equivalent of Relation.Domain, used by
// predicate generation when no Relation exists (out-of-core stores).
func (cs *ColumnSet) Domain(attr int) []float64 {
	col := cs.num[attr]
	seen := make(map[float64]struct{})
	for i, v := range col {
		if v != v || cs.IsNull(attr, i) {
			continue
		}
		seen[v] = struct{}{}
	}
	out := make([]float64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// CategoricalDomain returns the sorted distinct non-null values of
// categorical column attr — the columnar equivalent of
// Relation.CategoricalDomain. The dictionary already holds exactly the
// distinct non-null values, so no row scan is needed.
func (cs *ColumnSet) CategoricalDomain(attr int) []string {
	out := append([]string(nil), cs.dicts[attr]...)
	sort.Strings(out)
	return out
}

// View is a ColumnSet plus a selection vector: the columnar replacement for
// copy-on-Select sub-relations. Sel holds row indices in strictly increasing
// order; filters narrow it without touching column storage.
type View struct {
	Cols *ColumnSet
	Sel  []int
}

// View returns the full-relation view (every row selected).
func (cs *ColumnSet) View() *View {
	sel := make([]int, cs.rows)
	for i := range sel {
		sel[i] = i
	}
	return &View{Cols: cs, Sel: sel}
}

// Len returns the number of selected rows.
func (v *View) Len() int { return len(v.Sel) }
