package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Relation is a schema plus a bag of tuples.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// NewRelation creates an empty relation over schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{Schema: schema}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Append adds a tuple after checking its arity. An arity mismatch returns an
// error wrapping ErrArityMismatch.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("%w: tuple arity %d, schema arity %d", ErrArityMismatch, len(t), r.Schema.Len())
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend is Append that panics on arity mismatch; intended for
// generators and tests building tuples from literals. Load paths fed by
// external input (CSV, wire) must use Append and propagate the error.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Select returns a new relation holding the tuples for which keep returns
// true. Tuples are shared, not copied.
func (r *Relation) Select(keep func(Tuple) bool) *Relation {
	out := NewRelation(r.Schema)
	for _, t := range r.Tuples {
		if keep(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Head returns a relation with at most n leading tuples (shared backing).
func (r *Relation) Head(n int) *Relation {
	if n > len(r.Tuples) {
		n = len(r.Tuples)
	}
	return &Relation{Schema: r.Schema, Tuples: r.Tuples[:n]}
}

// Clone deep-copies the relation (tuples included). All cloned tuples share
// one backing []Value allocation, sliced per tuple with capped capacity so an
// append to one tuple cannot bleed into the next.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Schema)
	out.Tuples = make([]Tuple, len(r.Tuples))
	total := 0
	for _, t := range r.Tuples {
		total += len(t)
	}
	backing := make([]Value, 0, total)
	for i, t := range r.Tuples {
		start := len(backing)
		backing = append(backing, t...)
		out.Tuples[i] = Tuple(backing[start:len(backing):len(backing)])
	}
	return out
}

// Column extracts the numeric column at index idx. Null cells become NaN.
func (r *Relation) Column(idx int) []float64 {
	out := make([]float64, len(r.Tuples))
	for i, t := range r.Tuples {
		if t[idx].Null {
			out[i] = math.NaN()
		} else {
			out[i] = t[idx].Num
		}
	}
	return out
}

// Domain returns the sorted distinct non-null numeric values of column idx.
// NaN cells are skipped like null ones: NaN ≠ NaN, so a map would keep each
// one as a distinct value, and no predicate on NaN selects a row.
func (r *Relation) Domain(idx int) []float64 {
	seen := make(map[float64]struct{})
	for _, t := range r.Tuples {
		if v := t[idx]; !v.Null && !math.IsNaN(v.Num) {
			seen[v.Num] = struct{}{}
		}
	}
	out := make([]float64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// CategoricalDomain returns the sorted distinct non-null string values of
// column idx.
func (r *Relation) CategoricalDomain(idx int) []string {
	seen := make(map[string]struct{})
	for _, t := range r.Tuples {
		if !t[idx].Null {
			seen[t[idx].Str] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Split partitions the relation into a training prefix of fraction frac and
// the remaining test suffix. frac is clamped into [0,1].
func (r *Relation) Split(frac float64) (train, test *Relation) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(math.Round(frac * float64(len(r.Tuples))))
	return &Relation{Schema: r.Schema, Tuples: r.Tuples[:n]},
		&Relation{Schema: r.Schema, Tuples: r.Tuples[n:]}
}

// Shuffle permutes the tuples in place using rng.
func (r *Relation) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(r.Tuples), func(i, j int) {
		r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i]
	})
}

// MaskMissing sets fraction frac of the non-null numeric cells in column idx
// to Null, using rng for the choice. It returns the positions masked, so a
// caller can compare imputed values against the originals.
func (r *Relation) MaskMissing(idx int, frac float64, rng *rand.Rand) []int {
	var candidates []int
	for i, t := range r.Tuples {
		if !t[idx].Null {
			candidates = append(candidates, i)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	n := int(math.Round(frac * float64(len(candidates))))
	masked := candidates[:n]
	for _, i := range masked {
		t := r.Tuples[i].Clone()
		t[idx] = Null()
		r.Tuples[i] = t
	}
	sort.Ints(masked)
	return masked
}

// SortByColumn stably sorts tuples ascending by the numeric column idx,
// nulls last.
func (r *Relation) SortByColumn(idx int) {
	sort.SliceStable(r.Tuples, func(i, j int) bool {
		a, b := r.Tuples[i][idx], r.Tuples[j][idx]
		if a.Null {
			return false
		}
		if b.Null {
			return true
		}
		return a.Num < b.Num
	})
}
