// Package telemetry provides the lightweight instrumentation layer of the
// discovery engine: atomic counters, gauges, duration histograms and value
// distributions grouped in a Registry with a consistent snapshot API.
//
// The package is designed for hot paths:
//
//   - every metric is lock-free after creation (atomic operations only);
//   - a nil *Registry is a valid no-op sink, so instrumented code needs no
//     "is telemetry enabled" branches — resolve metrics once and call them
//     unconditionally;
//   - metric handles are resolved by name once (a map lookup under a short
//     mutex) and then held, so per-event cost is a single atomic add.
//
// Metric names used across the system are declared in metrics.go so CLIs,
// the evaluation harness and tests agree on one schema.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of metrics. The zero value is not usable;
// call New. A nil *Registry is a valid no-op sink: every method on it (and
// on the nil metric handles it returns) does nothing.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	durations map[string]*Histogram
	dists     map[string]*Distribution
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		durations: make(map[string]*Histogram),
		dists:     make(map[string]*Distribution),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. On a nil registry it returns nil, which is itself a no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the duration histogram registered under name, creating
// it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.durations[name]
	if h == nil {
		h = newHistogram()
		r.durations[name] = h
	}
	return h
}

// Distribution returns the value distribution registered under name,
// creating it on first use. On a nil registry it returns nil, which is
// itself a no-op distribution.
func (r *Registry) Distribution(name string) *Distribution {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.dists[name]
	if d == nil {
		d = newDistribution()
		r.dists[name] = d
	}
	return d
}

// Time starts a wall-clock phase observation: the returned stop function
// records the elapsed time into the duration histogram registered under
// name. Usable on a nil registry.
func (r *Registry) Time(name string) (stop func()) {
	h := r.Histogram(name)
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks an instantaneous value (e.g. queue depth) together with the
// maximum it ever reached.
type Gauge struct {
	last atomic.Uint64 // float64 bits
	max  atomic.Uint64 // float64 bits
}

// Set records the current value and raises the running maximum. No-op on a
// nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	bits := math.Float64bits(v)
	g.last.Store(bits)
	for {
		cur := g.max.Load()
		if v <= math.Float64frombits(cur) {
			return
		}
		if g.max.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// Value returns the last recorded value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.last.Load())
}

// Max returns the largest value ever Set; 0 on a nil gauge.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.max.Load())
}

// Distribution accumulates a dimensionless float64 value distribution —
// count, sum, min and max — for hot-path quantities that are sizes rather
// than durations (e.g. share-scan widths). Like every metric here it is
// lock-free after creation and nil-safe.
type Distribution struct {
	count atomic.Int64
	sum   atomic.Uint64 // float64 bits, CAS-accumulated
	min   atomic.Uint64 // float64 bits
	max   atomic.Uint64 // float64 bits
}

func newDistribution() *Distribution {
	d := &Distribution{}
	d.min.Store(math.Float64bits(math.Inf(1)))
	d.max.Store(math.Float64bits(math.Inf(-1)))
	return d
}

// Observe records one value. No-op on a nil distribution.
func (d *Distribution) Observe(v float64) {
	if d == nil {
		return
	}
	d.count.Add(1)
	for {
		cur := d.sum.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if d.sum.CompareAndSwap(cur, next) {
			break
		}
	}
	for {
		cur := d.min.Load()
		if v >= math.Float64frombits(cur) || d.min.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
	for {
		cur := d.max.Load()
		if v <= math.Float64frombits(cur) || d.max.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
}

// DistStat is the snapshot of one value distribution.
type DistStat struct {
	Count    int64
	Sum      float64
	Min, Max float64
}

// Mean returns the average observed value (0 when empty).
func (d DistStat) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// bucketBounds are the upper bounds (inclusive) of the histogram buckets;
// a final overflow bucket catches everything beyond the last bound. The
// decade spacing spans share-test microseconds to multi-second mines.
var bucketBounds = [...]time.Duration{
	time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second,
}

// numBuckets includes the overflow bucket.
const numBuckets = len(bucketBounds) + 1

// Histogram accumulates durations into fixed exponential buckets, plus
// count, sum, min and max.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; valid when count > 0
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one duration. No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(d)].Add(1)
}

func bucketOf(d time.Duration) int {
	for i, b := range bucketBounds {
		if d <= b {
			return i
		}
	}
	return numBuckets - 1
}

// GaugeStat is the snapshot of one gauge.
type GaugeStat struct {
	Last float64
	Max  float64
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations with duration ≤ Le (the last bucket has Le = 0 and holds the
// overflow).
type BucketCount struct {
	Le    time.Duration
	Count int64
}

// DurationStat is the snapshot of one duration histogram.
type DurationStat struct {
	Count    int64
	Total    time.Duration
	Min, Max time.Duration
	Buckets  []BucketCount
}

// Mean returns the average observed duration (0 when empty).
func (d DurationStat) Mean() time.Duration {
	if d.Count == 0 {
		return 0
	}
	return d.Total / time.Duration(d.Count)
}

// Snapshot is a point-in-time copy of every metric in a registry. Metrics
// keep accumulating after the snapshot; the copy is internally consistent
// per metric but not across metrics (no global pause).
type Snapshot struct {
	Counters      map[string]int64
	Gauges        map[string]GaugeStat
	Durations     map[string]DurationStat
	Distributions map[string]DistStat
}

// Snapshot captures the current value of every registered metric. On a nil
// registry it returns an empty (but non-nil-map) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:      make(map[string]int64),
		Gauges:        make(map[string]GaugeStat),
		Durations:     make(map[string]DurationStat),
		Distributions: make(map[string]DistStat),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeStat{Last: g.Value(), Max: g.Max()}
	}
	for name, h := range r.durations {
		st := DurationStat{
			Count:   h.count.Load(),
			Total:   time.Duration(h.sum.Load()),
			Max:     time.Duration(h.max.Load()),
			Buckets: make([]BucketCount, numBuckets),
		}
		if st.Count > 0 {
			st.Min = time.Duration(h.min.Load())
		}
		for i := range h.buckets {
			st.Buckets[i].Count = h.buckets[i].Load()
			if i < len(bucketBounds) {
				st.Buckets[i].Le = bucketBounds[i]
			}
		}
		s.Durations[name] = st
	}
	for name, d := range r.dists {
		st := DistStat{Count: d.count.Load(), Sum: math.Float64frombits(d.sum.Load())}
		if st.Count > 0 {
			st.Min = math.Float64frombits(d.min.Load())
			st.Max = math.Float64frombits(d.max.Load())
		}
		s.Distributions[name] = st
	}
	return s
}

// Summary renders the snapshot as one sorted "name=value" line: counters as
// integers, gauges as last/max, durations as total(count), distributions as
// avg(count). Empty metrics are included so a summary always lists
// everything that was registered.
func (s Snapshot) Summary() string {
	parts := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Durations)+len(s.Distributions))
	for name, v := range s.Counters {
		parts = append(parts, fmt.Sprintf("%s=%d", name, v))
	}
	for name, d := range s.Distributions {
		parts = append(parts, fmt.Sprintf("%s=avg%.3g(%d)", name, d.Mean(), d.Count))
	}
	for name, g := range s.Gauges {
		parts = append(parts, fmt.Sprintf("%s=%g/max%g", name, g.Last, g.Max))
	}
	for name, d := range s.Durations {
		parts = append(parts, fmt.Sprintf("%s=%s(%d)", name, FormatDuration(d.Total), d.Count))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// FormatDuration renders a duration with units matched to its scale, the
// way the paper reports learning in seconds and evaluation in milliseconds.
// Summary lines and the CLIs' phase and table cells share it, so durations
// render the same everywhere.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
