package predicate

import (
	"math"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
)

// fuzzTols and fuzzShifts are the tolerances and y shifts FuzzMergeWindows
// draws from.
var (
	fuzzTols   = []float64{0, 0.1, 0.25, 1}
	fuzzShifts = []float64{0, 0.01, 0.05, 0.1, 0.2, 0.5, 1, 3}
)

// fuzzWindows decodes data, four bytes per disjunct and at most seven
// disjuncts, into a DNF over numeric attributes 0 and 1 and categorical
// attribute 2:
//
//	b0  bit 0: the attribute; bits 1–2: no low end, ≥, > or a point (=);
//	    bit 3: no high end; bit 4: a closed high end (≤); bit 5: the context
//	    A2 = a, or A2 = b with bit 6; bit 7: an x shift on A0
//	b1  the low end, 0–20
//	b2  the width, 0–10
//	b3  bits 0–2: the y shift, from fuzzShifts; bit 3: a bound on the
//	    other attribute, which makes the disjunct pass through; bit 4: x
//	    shift 2 in place of 1
func fuzzWindows(data []byte) DNF {
	var d DNF
	for len(data) >= 4 && len(d.Conjs) < 7 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		attr := int(b0 & 1)
		lo := float64(b1 % 21)
		hi := lo + float64(b2%11)
		var c Conjunction
		switch (b0 >> 1) & 3 {
		case 1:
			c.Preds = append(c.Preds, NumPred(attr, Ge, lo))
		case 2:
			c.Preds = append(c.Preds, NumPred(attr, Gt, lo))
		case 3:
			c.Preds = append(c.Preds, NumPred(attr, Eq, lo))
		}
		if b0&(1<<3) == 0 && (b0>>1)&3 != 3 {
			op := Lt
			if b0&(1<<4) != 0 {
				op = Le
			}
			c.Preds = append(c.Preds, NumPred(attr, op, hi))
		}
		if b0&(1<<5) != 0 {
			c.Preds = append(c.Preds, StrPred(2, []string{"a", "b"}[(b0>>6)&1]))
		}
		if b3&(1<<3) != 0 {
			c.Preds = append(c.Preds, NumPred(1-attr, Lt, 10))
		}
		if b0&(1<<7) != 0 {
			c.Builtin = c.Builtin.WithXShift(0, 1+float64((b3>>4)&1))
		}
		c.Builtin.YShift = fuzzShifts[b3&7]
		d.Conjs = append(d.Conjs, c)
	}
	return d
}

// FuzzMergeWindows holds the one window merger to its contract on a grid
// that takes every window end and every point between two ends: each tuple
// keeps its coverage and its first-match x shift, and its first-match y
// shift moves by at most spread/2 (up to rounding), with spread ≤ tol.
func FuzzMergeWindows(f *testing.F) {
	// (A0≥0 ∧ A0<10) ∨ (A1≥5 ∧ A1<15) at tol 0: windows on two attributes
	// under one context and builtin must not join.
	f.Add(uint8(0), []byte{2, 0, 10, 0, 3, 5, 10, 0})
	// (A0≥0 ∧ A0<10) ∨ (A0≥5 ∧ A0<15 ∧ A2=a ∧ y=3) ∨ (A0≥10 ∧ A0<20 ∧
	// y=0.01) at tol 0.1: joining the first and last window would move the
	// first match of (12, ·, a) off y = 3.
	f.Add(uint8(1), []byte{2, 0, 10, 0, 34, 5, 10, 7, 2, 10, 10, 1})
	// A chain of touching windows with nearby shifts and a shared x shift.
	f.Add(uint8(2), []byte{130, 0, 5, 2, 130, 5, 5, 3, 146, 10, 5, 4})
	// (A0≥6 ∧ A0≤10 ∧ A2=a) ∨ (A0≥2 ∧ A2=a ∧ y=3) at tol 1: one group, but
	// the windows overlap with different y shifts, so they must not join.
	f.Add(uint8(3), []byte{50, 6, 4, 0, 42, 2, 0, 7})

	grid := make([]float64, 0, 45)
	for v := -1.0; v <= 21; v += 0.5 {
		grid = append(grid, v)
	}
	cats := []dataset.Value{dataset.Str("a"), dataset.Str("b"), dataset.Null()}
	f.Fuzz(func(t *testing.T, tolIdx uint8, data []byte) {
		tol := fuzzTols[int(tolIdx)%len(fuzzTols)]
		d := fuzzWindows(data)
		m, spread := d.MergeWindows(tol)
		if spread < 0 || spread > tol || len(m.Conjs) > len(d.Conjs) {
			t.Fatalf("MergeWindows(%v) of %v: spread %v, %d disjuncts", tol, d, spread, len(m.Conjs))
		}
		tpl := make(dataset.Tuple, 3)
		for _, x0 := range grid {
			for _, x1 := range grid {
				for _, cat := range cats {
					tpl[0], tpl[1], tpl[2] = dataset.Num(x0), dataset.Num(x1), cat
					c1, ok1 := d.MatchConjunction(tpl)
					c2, ok2 := m.MatchConjunction(tpl)
					if ok1 != ok2 {
						t.Fatalf("MergeWindows(%v) of %v = %v: coverage of %v changed to %v", tol, d, m, tpl, ok2)
					}
					if !ok1 {
						continue
					}
					if !(Builtin{XShift: c1.Builtin.XShift}).Equal(Builtin{XShift: c2.Builtin.XShift}) {
						t.Fatalf("MergeWindows(%v) of %v = %v: x shift of %v moved from %v to %v", tol, d, m, tpl, c1.Builtin, c2.Builtin)
					}
					if math.Abs(c1.Builtin.YShift-c2.Builtin.YShift) > spread/2+1e-12 {
						t.Fatalf("MergeWindows(%v) of %v = %v: y shift of %v moved from %v to %v, spread %v", tol, d, m, tpl, c1.Builtin.YShift, c2.Builtin.YShift, spread)
					}
				}
			}
		}
	})
}
