package predicate

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
)

// filterTestRelation builds a mixed-kind relation with nulls sprinkled into
// every column, the adversarial surface for Filter/Sat parity.
func filterTestRelation(n int, seed int64) *dataset.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "A", Kind: dataset.Numeric},
		dataset.Attribute{Name: "B", Kind: dataset.Numeric},
		dataset.Attribute{Name: "C", Kind: dataset.Categorical},
	)
	rel := dataset.NewRelation(schema)
	cats := []string{"red", "green", "blue", ""}
	for i := 0; i < n; i++ {
		t := dataset.Tuple{
			dataset.Num(rng.Float64() * 100),
			dataset.Num(float64(rng.Intn(10))),
			dataset.Str(cats[rng.Intn(len(cats))]),
		}
		for a := 0; a < 3; a++ {
			if rng.Float64() < 0.1 {
				t[a] = dataset.Null()
			}
		}
		rel.MustAppend(t)
	}
	return rel
}

// randPredicate draws a predicate over the test schema, mixing constants
// that occur in the data with ones that do not.
func randPredicate(rng *rand.Rand) Predicate {
	if rng.Intn(3) == 2 {
		cats := []string{"red", "green", "blue", "", "absent"}
		return StrPred(2, cats[rng.Intn(len(cats))])
	}
	attr := rng.Intn(2)
	op := Op(rng.Intn(5))
	c := rng.Float64() * 110
	if attr == 1 {
		c = float64(rng.Intn(12)) // integral: makes Eq hits likely
	}
	return NumPred(attr, op, c)
}

// satRows is the reference selection: the rows of sel whose tuples satisfy
// the given Sat test.
func satRows(rel *dataset.Relation, sel []int, sat func(dataset.Tuple) bool) []int {
	var out []int
	for _, r := range sel {
		if sat(rel.Tuples[r]) {
			out = append(out, r)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFilterMatchesSat is the Filter/Sat parity property test: across many
// random predicates and conjunctions, the vectorized filters must select
// exactly the rows whose tuples satisfy Sat, in order.
func TestFilterMatchesSat(t *testing.T) {
	rel := filterTestRelation(500, 11)
	cs := dataset.NewColumnSet(rel)
	full := cs.View().Sel
	rng := rand.New(rand.NewSource(7))

	for trial := 0; trial < 300; trial++ {
		p := randPredicate(rng)
		got := p.Filter(cs, full, nil)
		want := satRows(rel, full, p.Sat)
		if !equalInts(got, want) {
			t.Fatalf("trial %d: predicate %v: filter %v, sat %v", trial, p, got, want)
		}

		conj := NewConjunction()
		for i, k := 0, rng.Intn(4); i < k; i++ {
			conj = conj.And(randPredicate(rng))
		}
		got = conj.Filter(cs, full, nil)
		want = satRows(rel, full, conj.Sat)
		if !equalInts(got, want) {
			t.Fatalf("trial %d: conjunction %v: filter %v, sat %v", trial, conj, got, want)
		}
	}
}

// TestFilterNarrowedSelection checks parity on a partial selection and that
// in-place narrowing (dst aliasing sel) is safe for single predicates.
func TestFilterNarrowedSelection(t *testing.T) {
	rel := filterTestRelation(300, 3)
	cs := dataset.NewColumnSet(rel)
	rng := rand.New(rand.NewSource(5))
	var sel []int
	for i := 0; i < rel.Len(); i++ {
		if rng.Intn(2) == 0 {
			sel = append(sel, i)
		}
	}
	for trial := 0; trial < 100; trial++ {
		p := randPredicate(rng)
		want := satRows(rel, sel, p.Sat)
		got := p.Filter(cs, sel, nil)
		if !equalInts(got, want) {
			t.Fatalf("trial %d: %v on subset: filter %v, sat %v", trial, p, got, want)
		}
		// In-place: narrow a scratch copy into itself.
		scratch := append([]int(nil), sel...)
		inplace := p.Filter(cs, scratch, scratch)
		if !equalInts(inplace, want) {
			t.Fatalf("trial %d: %v in-place: filter %v, sat %v", trial, p, inplace, want)
		}
	}
}

// FuzzPredicateFilterParity fuzzes one numeric predicate against a small
// generated column: Filter must agree with Sat for any op/constant, with and
// without nulls.
func FuzzPredicateFilterParity(f *testing.F) {
	f.Add(int64(1), uint8(1), 50.0)
	f.Add(int64(2), uint8(0), 0.0)
	f.Add(int64(3), uint8(4), -7.5)
	f.Fuzz(func(t *testing.T, seed int64, opRaw uint8, c float64) {
		if c != c { // NaN constants are not representable predicates
			t.Skip()
		}
		op := Op(int(opRaw) % 5)
		rel := filterTestRelation(64, seed)
		cs := dataset.NewColumnSet(rel)
		p := NumPred(0, op, c)
		got := p.Filter(cs, cs.View().Sel, nil)
		want := satRows(rel, cs.View().Sel, p.Sat)
		if !equalInts(got, want) {
			t.Fatalf("predicate %v: filter %v, sat %v", p, got, want)
		}
	})
}

// benchConj is the benchmark workload: a two-sided interval plus a
// categorical equality, the shape discovery's refinement produces.
func benchConj() Conjunction {
	return NewConjunction(NumPred(0, Gt, 25), NumPred(0, Le, 75), StrPred(2, "red"))
}

// BenchmarkFilterColumnar measures the vectorized conjunction filter over a
// full selection — the columnar hot path of discovery, violations and batch
// serving.
func BenchmarkFilterColumnar(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rel := filterTestRelation(n, 1)
			cs := dataset.NewColumnSet(rel)
			sel := cs.View().Sel
			conj := benchConj()
			dst := make([]int, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = conj.Filter(cs, sel, dst)
			}
		})
	}
}

// BenchmarkFilterRowwise is the tuple-at-a-time reference for the same
// workload, for before/after comparison with BenchmarkFilterColumnar.
func BenchmarkFilterRowwise(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rel := filterTestRelation(n, 1)
			conj := benchConj()
			out := make([]int, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = out[:0]
				for r, t := range rel.Tuples {
					if conj.Sat(t) {
						out = append(out, r)
					}
				}
			}
		})
	}
}
