package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs in ascending order without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, interpolating
// linearly between the two nearest ranks. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the percentiles a tail latency is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, and false when even the median has
// fewer. A percentile with fewer samples beyond it is one or two outliers,
// not a tail.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so spreads read the same here and in any
// script that checks them.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// iqr returns the distance between the first and third quartile of xs.
func iqr(xs []float64) float64 {
	q1, _, q3, ok := quartiles(xs)
	if !ok {
		return 0
	}
	return q3 - q1
}

// relSpread returns the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.Inf(1)
	}
	return iqr(xs) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a / b, or 0 when b is 0 (a ratio over no attempts).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// verdict is the outcome of comparing one metric on one workload between a
// parent commit and a change.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares paired runs of one metric. parent[i] and change[i] ran as
// a pair with the same seed. The rules follow the repository's measuring
// practice:
//
//   - improved: the change wins at least nine tenths of all pairs (ties
//     count for neither) and the medians differ, in its favour, by more
//     than the interquartile range of the parent's own runs;
//   - unresolved: either side's runs spread wider than the bound, unless
//     every run of the change reads better than every run of the parent;
//   - worse: the change's median is worse than the parent's by more than
//     bound × the parent's median;
//   - unchanged otherwise.
func judge(parent, change []float64, higherIsBetter bool, bound float64) (verdict, string) {
	if len(parent) == 0 || len(parent) != len(change) {
		return unresolved, "no paired runs"
	}
	better := func(c, p float64) bool {
		if higherIsBetter {
			return c > p
		}
		return c < p
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	pIQR := iqr(parent)
	detail := fmt.Sprintf("won %d/%d pairs, parent IQR %.4g", wins, len(parent), pIQR)
	if 10*wins >= 9*len(parent) && better(cm, pm) && math.Abs(cm-pm) > pIQR {
		return improved, detail
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if spread := math.Max(relSpread(parent), relSpread(change)); spread > bound && !allBetter {
		return unresolved, fmt.Sprintf("%s, spread %.1f%% > bound %.1f%%", detail, 100*spread, 100*bound)
	}
	loss := (cm - pm) / math.Abs(pm)
	if higherIsBetter {
		loss = -loss
	}
	if loss > bound {
		return worse, fmt.Sprintf("%s, %.1f%% worse > bound %.1f%%", detail, 100*loss, 100*bound)
	}
	return unchanged, detail
}
