package dataset

import (
	"math"
	"reflect"
	"testing"
)

// assembleFromRelation rebuilds rel's columns as AssembledColumns — the
// shape a wire decode produces — so tests can hold AssembleColumnSet to the
// NewColumnSet representation over identical data.
func assembleFromRelation(rel *Relation) (int, []AssembledColumn) {
	ref := NewColumnSet(rel)
	cols := make([]AssembledColumn, rel.Schema.Len())
	for a := 0; a < rel.Schema.Len(); a++ {
		var nulls []uint64
		if ref.HasNulls(a) {
			nulls = make([]uint64, (rel.Len()+63)/64)
			for r := 0; r < rel.Len(); r++ {
				if ref.IsNull(a, r) {
					nulls[r>>6] |= 1 << (uint(r) & 63)
				}
			}
		}
		if rel.Schema.Attr(a).Kind == Numeric {
			cols[a] = AssembledColumn{Floats: append([]float64(nil), ref.Float(a)...), Nulls: nulls}
		} else {
			cols[a] = AssembledColumn{
				Codes: append([]uint32(nil), ref.Codes(a)...),
				Dict:  append([]string(nil), ref.Dict(a)...),
				Nulls: nulls,
			}
		}
	}
	return rel.Len(), cols
}

// TestAssembleMatchesNewColumnSet: assembling pre-decoded columns yields a
// ColumnSet indistinguishable from columnarizing the tuples, across all
// five evaluation generators — same floats bitwise, same codes, same null
// sets, same materialized rows.
func TestAssembleMatchesNewColumnSet(t *testing.T) {
	cfg := DefaultTaxConfig()
	cfg.Rows = 500
	for name, rel := range map[string]*Relation{
		"tax":         GenerateTax(cfg),
		"abalone":     GenerateAbalone(AbaloneConfig{Rows: 300, Seed: 7}),
		"electricity": GenerateElectricity(ElectricityConfig{Rows: 300, Seed: 7}),
	} {
		ref := NewColumnSet(rel)
		rows, cols := assembleFromRelation(rel)
		got, err := AssembleColumnSet(rel.Schema, rows, cols)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != ref.Len() {
			t.Fatalf("%s: len %d, want %d", name, got.Len(), ref.Len())
		}
		for a := 0; a < rel.Schema.Len(); a++ {
			if got.HasNulls(a) != ref.HasNulls(a) {
				t.Fatalf("%s col %d: HasNulls %v, want %v", name, a, got.HasNulls(a), ref.HasNulls(a))
			}
			for r := 0; r < ref.Len(); r++ {
				if got.IsNull(a, r) != ref.IsNull(a, r) {
					t.Fatalf("%s col %d row %d: null mismatch", name, a, r)
				}
			}
			if rel.Schema.Attr(a).Kind == Numeric {
				g, w := got.Float(a), ref.Float(a)
				for r := range w {
					if math.Float64bits(g[r]) != math.Float64bits(w[r]) {
						t.Fatalf("%s col %d row %d: %v, want %v", name, a, r, g[r], w[r])
					}
				}
			} else if !reflect.DeepEqual(got.Codes(a), ref.Codes(a)) || !reflect.DeepEqual(got.Dict(a), ref.Dict(a)) {
				t.Fatalf("%s col %d: codes/dict mismatch", name, a)
			}
		}
		back := got.Materialize()
		for r := 0; r < rel.Len(); r++ {
			if !reflect.DeepEqual(back.Tuples[r], rel.Tuples[r]) {
				t.Fatalf("%s row %d: materialized %v, want %v", name, r, back.Tuples[r], rel.Tuples[r])
			}
		}
	}
}

// TestAssembleNormalization: a null bit forces the numeric lane to zero, a
// NullCode without a bitmap grows one, and an all-zero bitmap is dropped so
// HasNulls stays false for clean columns.
func TestAssembleNormalization(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "c", Kind: Categorical},
		Attribute{Name: "clean", Kind: Numeric},
	)
	cols := []AssembledColumn{
		{Floats: []float64{math.NaN(), 2, 3}, Nulls: []uint64{0b001}},
		{Codes: []uint32{0, NullCode, 1}, Dict: []string{"a", "b"}},
		{Floats: []float64{1, 2, 3}, Nulls: []uint64{0}},
	}
	cs, err := AssembleColumnSet(schema, 3, cols)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.IsNull(0, 0) || cs.Float(0)[0] != 0 {
		t.Errorf("null lane not normalized: null=%v lane=%v", cs.IsNull(0, 0), cs.Float(0)[0])
	}
	if !cs.IsNull(1, 1) {
		t.Error("NullCode cell did not set its null bit")
	}
	if cs.HasNulls(2) {
		t.Error("all-zero bitmap was not dropped")
	}
	if got := cs.Materialize().Tuples[1]; !got[0].Null == false || !got[1].Null {
		t.Errorf("row 1 = %v", got)
	}
}

// TestAssembleRejects: width, length, bitmap and dictionary mismatches fail
// loudly instead of producing a ColumnSet that indexes out of bounds later.
func TestAssembleRejects(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "c", Kind: Categorical},
	)
	cases := []struct {
		name string
		rows int
		cols []AssembledColumn
	}{
		{"width", 1, []AssembledColumn{{Floats: []float64{1}}}},
		{"short floats", 2, []AssembledColumn{
			{Floats: []float64{1}}, {Codes: []uint32{0, 0}, Dict: []string{"a"}}}},
		{"short codes", 2, []AssembledColumn{
			{Floats: []float64{1, 2}}, {Codes: []uint32{0}, Dict: []string{"a"}}}},
		{"code outside dict", 1, []AssembledColumn{
			{Floats: []float64{1}}, {Codes: []uint32{3}, Dict: []string{"a"}}}},
		{"short bitmap", 65, []AssembledColumn{
			{Floats: make([]float64, 65), Nulls: []uint64{0}},
			{Codes: make([]uint32, 65), Dict: []string{"a"}}}},
	}
	for _, c := range cases {
		if _, err := AssembleColumnSet(schema, c.rows, c.cols); err == nil {
			t.Errorf("%s: assemble succeeded, want error", c.name)
		}
	}
}

// TestAllNullColumn: the absent-attribute column is null at every row and
// assembles cleanly at any size, including multiples of 64.
func TestAllNullColumn(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "c", Kind: Categorical},
	)
	for _, n := range []int{1, 63, 64, 65, 128, 200} {
		cs, err := AssembleColumnSet(schema, n, []AssembledColumn{
			AllNullColumn(Numeric, n),
			AllNullColumn(Categorical, n),
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for a := 0; a < 2; a++ {
			for r := 0; r < n; r++ {
				if !cs.IsNull(a, r) {
					t.Fatalf("n=%d col %d row %d not null", n, a, r)
				}
			}
		}
		if got := cs.Materialize().Tuples[n-1]; !got[0].Null || !got[1].Null {
			t.Fatalf("n=%d: materialized last row %v, want nulls", n, got)
		}
	}
}

// TestMaterializeRoundTrip: Materialize inverts NewColumnSet exactly.
func TestMaterializeRoundTrip(t *testing.T) {
	cfg := DefaultTaxConfig()
	cfg.Rows = 200
	rel := GenerateTax(cfg)
	got := NewColumnSet(rel).Materialize()
	if got.Len() != rel.Len() {
		t.Fatalf("len %d, want %d", got.Len(), rel.Len())
	}
	for r := range rel.Tuples {
		if !reflect.DeepEqual(got.Tuples[r], rel.Tuples[r]) {
			t.Fatalf("row %d: %v, want %v", r, got.Tuples[r], rel.Tuples[r])
		}
	}
}
