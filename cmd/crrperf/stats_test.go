package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {90, 4.6}, {25, 2}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

// The reference cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4}, [3]float64{1.675, 3.75, 8.525}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2.5, 2.5, 2.5}, [3]float64{2.5, 2.5, 2.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", tc.xs)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.xs, i, got, tc.want[i])
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must not be ok")
	}
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higher         bool
		bound          float64
		want           verdict
	}{
		{"faster in every pair", steady, scale(steady, 0.8), false, 0.1, improved},
		{"same numbers", steady, steady, false, 0.1, unchanged},
		{"slower within the bound", steady, scale(steady, 1.05), false, 0.1, unchanged},
		{"slower beyond the bound", steady, scale(steady, 1.3), false, 0.1, worse},
		{"higher is better, lower read", steady, scale(steady, 0.7), true, 0.1, worse},
		{"higher is better, higher read", steady, scale(steady, 1.3), true, 0.1, improved},
		{"spread wider than the bound", []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100},
			[]float64{130, 70, 150, 60, 100, 120, 80, 140, 100, 90}, false, 0.1, unresolved},
		{"wins only 8 of 10 pairs", steady,
			[]float64{90, 91, 89, 90, 92, 88, 90, 91, 103, 103}, false, 0.1, unchanged},
	} {
		got, detail := judge(tc.parent, tc.change, tc.higher, tc.bound)
		if got != tc.want {
			t.Errorf("%s: %s (%s), want %s", tc.name, got, detail, tc.want)
		}
	}
	if got, _ := judge(nil, nil, false, 0.1); got != unresolved {
		t.Errorf("no pairs: %s, want unresolved", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", StartNS: 35, EndNS: 45},
		{ID: 5, Parent: 1, Name: "d", StartNS: 90, EndNS: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 30, 3: 20, 4: 10, 5: 30} {
		if int64(self[id]) != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
