package dataset

import (
	"fmt"
)

// Assembly and materialization: the bridges between pre-decoded columnar
// payloads (the binary wire protocol) and the ColumnSet execution core, and
// back to row-major tuples for the few consumers that still need them
// (imputation fills, repair suggestions). AssembleColumnSet adopts the
// caller's slices without copying — decoding a wire request into the
// columnar fast path is a validation pass, not a data movement.

// AssembledColumn carries one decoded column destined for a ColumnSet.
// Exactly one of Floats (numeric attributes) or Codes+Dict (categorical
// attributes) is set, matching the schema kind at its position. Nulls, when
// non-nil, is a 1-bit-per-row bitmap (LSB-first per uint64 word).
type AssembledColumn struct {
	Floats []float64
	Codes  []uint32
	Dict   []string
	Nulls  []uint64
}

// AssembleColumnSet builds a ColumnSet over schema directly from decoded
// column payloads, one AssembledColumn per attribute in schema order. The
// slices are adopted, not copied; callers must not mutate them afterwards.
//
// The result is normalized to exactly the representation NewColumnSet
// produces from tuples, so every downstream consumer (vectorized filters,
// PredictView, ViolationsColumns) behaves bitwise-identically to the
// tuple-decoded path:
//
//   - numeric lanes under a null bit are forced to 0 (what Null() carries);
//   - categorical null cells hold NullCode and set their null bit, in both
//     directions;
//   - all-zero bitmaps are dropped (HasNulls stays false for clean columns);
//   - codes are validated against the dictionary.
func AssembleColumnSet(schema *Schema, rows int, cols []AssembledColumn) (*ColumnSet, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("dataset: %d columns for a %d-attribute schema", len(cols), schema.Len())
	}
	cs := &ColumnSet{
		Schema: schema,
		rows:   rows,
		num:    make([][]float64, schema.Len()),
		codes:  make([][]uint32, schema.Len()),
		dicts:  make([][]string, schema.Len()),
		lookup: make([]map[string]uint32, schema.Len()),
		nulls:  make([][]uint64, schema.Len()),
	}
	words := (rows + 63) / 64
	for a := range cols {
		col := &cols[a]
		attr := schema.Attr(a)
		nulls := col.Nulls
		if nulls != nil && len(nulls) < words {
			return nil, fmt.Errorf("dataset: attribute %q null bitmap has %d words for %d rows", attr.Name, len(nulls), rows)
		}
		isNull := func(r int) bool {
			return nulls != nil && nulls[r>>6]&(1<<(uint(r)&63)) != 0
		}
		switch attr.Kind {
		case Numeric:
			if len(col.Floats) != rows {
				return nil, fmt.Errorf("dataset: attribute %q has %d lanes for %d rows", attr.Name, len(col.Floats), rows)
			}
			if nulls != nil {
				for r := 0; r < rows; r++ {
					if isNull(r) {
						col.Floats[r] = 0
					}
				}
			}
			cs.num[a] = col.Floats
		case Categorical:
			if len(col.Codes) != rows {
				return nil, fmt.Errorf("dataset: attribute %q has %d codes for %d rows", attr.Name, len(col.Codes), rows)
			}
			for r, code := range col.Codes {
				switch {
				case isNull(r):
					col.Codes[r] = NullCode
				case code == NullCode:
					// A null cell announced only through its code: reflect
					// it into the bitmap so IsNull agrees.
					if nulls == nil {
						nulls = make([]uint64, words)
					}
					nulls[r>>6] |= 1 << (uint(r) & 63)
				case int(code) >= len(col.Dict):
					return nil, fmt.Errorf("dataset: attribute %q code %d outside dictionary of %d", attr.Name, code, len(col.Dict))
				}
			}
			cs.codes[a] = col.Codes
			cs.dicts[a] = col.Dict
			if len(col.Dict) > smallDict {
				m := make(map[string]uint32, 2*len(col.Dict))
				for j, s := range col.Dict {
					m[s] = uint32(j)
				}
				cs.lookup[a] = m
			}
		default:
			return nil, fmt.Errorf("dataset: attribute %q has unsupported kind %v", attr.Name, attr.Kind)
		}
		if nulls != nil {
			empty := true
			for _, w := range nulls[:words] {
				if w != 0 {
					empty = false
					break
				}
			}
			if !empty {
				cs.nulls[a] = nulls
			}
		}
	}
	return cs, nil
}

// AdoptColumnSet builds a ColumnSet over schema from already-normalized
// column payloads WITHOUT writing to them — the entry point for read-only
// storage such as mmap'd lanes (PROT_READ mappings fault on any store, so
// AssembleColumnSet's in-place normalization is off the table). Instead of
// normalizing, it validates that the payloads already satisfy the ColumnSet
// representation invariants and rejects any that do not:
//
//   - numeric lanes are adopted as-is (a null cell may carry any Num — the
//     bitmap is authoritative, matching NewColumnSet's raw-Value semantics);
//   - every categorical null cell must hold NullCode AND set its bitmap bit
//     (both directions);
//   - every non-null code must index into the dictionary;
//   - bitmap bits past the last row must be zero;
//   - all-zero bitmaps are dropped so HasNulls matches NewColumnSet.
//
// The categorical checks are one O(rows) pass per code lane, doubling as the
// lane-integrity scan of the out-of-core open path.
func AdoptColumnSet(schema *Schema, rows int, cols []AssembledColumn) (*ColumnSet, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("dataset: %d columns for a %d-attribute schema", len(cols), schema.Len())
	}
	if rows < 0 {
		return nil, fmt.Errorf("dataset: negative row count %d", rows)
	}
	cs := &ColumnSet{
		Schema: schema,
		rows:   rows,
		num:    make([][]float64, schema.Len()),
		codes:  make([][]uint32, schema.Len()),
		dicts:  make([][]string, schema.Len()),
		lookup: make([]map[string]uint32, schema.Len()),
		nulls:  make([][]uint64, schema.Len()),
	}
	words := (rows + 63) / 64
	for a := range cols {
		col := &cols[a]
		attr := schema.Attr(a)
		nulls := col.Nulls
		if nulls != nil {
			if len(nulls) < words {
				return nil, fmt.Errorf("dataset: attribute %q null bitmap has %d words for %d rows", attr.Name, len(nulls), rows)
			}
			if tail := rows & 63; tail != 0 && words > 0 && nulls[words-1]&^((1<<uint(tail))-1) != 0 {
				return nil, fmt.Errorf("dataset: attribute %q null bitmap has bits past row %d", attr.Name, rows)
			}
			empty := true
			for _, w := range nulls[:words] {
				if w != 0 {
					empty = false
					break
				}
			}
			if empty {
				nulls = nil
			}
		}
		isNull := func(r int) bool {
			return nulls != nil && nulls[r>>6]&(1<<(uint(r)&63)) != 0
		}
		switch attr.Kind {
		case Numeric:
			if len(col.Floats) != rows {
				return nil, fmt.Errorf("dataset: attribute %q has %d lanes for %d rows", attr.Name, len(col.Floats), rows)
			}
			cs.num[a] = col.Floats
		case Categorical:
			if len(col.Codes) != rows {
				return nil, fmt.Errorf("dataset: attribute %q has %d codes for %d rows", attr.Name, len(col.Codes), rows)
			}
			for r, code := range col.Codes {
				switch {
				case code == NullCode:
					if !isNull(r) {
						return nil, fmt.Errorf("dataset: attribute %q row %d holds NullCode without a null bit", attr.Name, r)
					}
				case isNull(r):
					return nil, fmt.Errorf("dataset: attribute %q row %d is null but holds code %d", attr.Name, r, code)
				case int(code) >= len(col.Dict):
					return nil, fmt.Errorf("dataset: attribute %q code %d outside dictionary of %d", attr.Name, code, len(col.Dict))
				}
			}
			cs.codes[a] = col.Codes
			cs.dicts[a] = col.Dict
			if len(col.Dict) > smallDict {
				m := make(map[string]uint32, 2*len(col.Dict))
				for j, s := range col.Dict {
					m[s] = uint32(j)
				}
				cs.lookup[a] = m
			}
		default:
			return nil, fmt.Errorf("dataset: attribute %q has unsupported kind %v", attr.Name, attr.Kind)
		}
		cs.nulls[a] = nulls
	}
	return cs, nil
}

// AllNullColumn returns an AssembledColumn of n null cells for attribute
// kind k — what a wire batch that omits a schema attribute decodes to,
// mirroring the JSON convention that an absent key means missing.
func AllNullColumn(k Kind, n int) AssembledColumn {
	col := AssembledColumn{Nulls: make([]uint64, (n+63)/64)}
	for i := range col.Nulls {
		col.Nulls[i] = ^uint64(0)
	}
	if w := n & 63; w != 0 && n > 0 {
		col.Nulls[len(col.Nulls)-1] = (1 << uint(w)) - 1
	}
	if k == Numeric {
		col.Floats = make([]float64, n)
	} else {
		col.Codes = make([]uint32, n)
		for i := range col.Codes {
			col.Codes[i] = NullCode
		}
	}
	return col
}

// materializeInto rebuilds row r into the schema-ordered Tuple t, inverting
// the columnar encoding exactly: null bits become Null() (Num 0, Str ""),
// numeric lanes become Num, codes become Str through the dictionary. Every
// column must be populated (a ColumnSet from NewColumnSetAttrs with a
// restricted attribute list cannot be materialized).
func (cs *ColumnSet) materializeInto(t Tuple, r int) {
	for a := 0; a < cs.Schema.Len(); a++ {
		if cs.IsNull(a, r) {
			t[a] = Null()
			continue
		}
		if col := cs.num[a]; col != nil {
			t[a] = Num(col[r])
			continue
		}
		code := cs.codes[a][r]
		if code == NullCode {
			t[a] = Null()
			continue
		}
		t[a] = Str(cs.dicts[a][code])
	}
}

// Materialize rebuilds the whole ColumnSet as a row-major Relation with a
// single backing tuple allocation — the bridge back to the consumers that
// mutate tuples in place (impute.Fill).
func (cs *ColumnSet) Materialize() *Relation {
	width := cs.Schema.Len()
	backing := make([]Value, cs.rows*width)
	tuples := make([]Tuple, cs.rows)
	for r := 0; r < cs.rows; r++ {
		t := Tuple(backing[r*width : (r+1)*width : (r+1)*width])
		cs.materializeInto(t, r)
		tuples[r] = t
	}
	return &Relation{Schema: cs.Schema, Tuples: tuples}
}
