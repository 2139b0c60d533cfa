package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("Counter did not return the registered instance")
	}
}

func TestGaugeTracksMax(t *testing.T) {
	r := New()
	g := r.Gauge("depth")
	g.Set(3)
	g.Set(17)
	g.Set(5)
	if g.Value() != 5 {
		t.Errorf("Value = %g, want 5", g.Value())
	}
	if g.Max() != 17 {
		t.Errorf("Max = %g, want 17", g.Max())
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	h := r.Histogram("d")
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	snap := r.Snapshot().Durations["d"]
	if snap.Count != 2 {
		t.Fatalf("Count = %d", snap.Count)
	}
	if snap.Total != 6*time.Millisecond {
		t.Errorf("Total = %v", snap.Total)
	}
	if snap.Min != 2*time.Millisecond || snap.Max != 4*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", snap.Min, snap.Max)
	}
	if snap.Mean() != 3*time.Millisecond {
		t.Errorf("Mean = %v", snap.Mean())
	}
	var inBuckets int64
	for _, b := range snap.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != 2 {
		t.Errorf("bucket counts sum to %d", inBuckets)
	}
}

func TestBucketOf(t *testing.T) {
	if b := bucketOf(500 * time.Nanosecond); b != 0 {
		t.Errorf("500ns bucket = %d", b)
	}
	if b := bucketOf(time.Minute); b != numBuckets-1 {
		t.Errorf("1m bucket = %d, want overflow", b)
	}
}

func TestTime(t *testing.T) {
	r := New()
	stop := r.Time("phase.x")
	time.Sleep(time.Millisecond)
	stop()
	d := r.Snapshot().Durations["phase.x"]
	if d.Count != 1 || d.Total < time.Millisecond {
		t.Errorf("phase.x = %+v", d)
	}
}

// TestNilRegistryIsNoop: the whole API must be callable on a nil registry so
// instrumented hot paths need no telemetry-enabled branches.
func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(time.Second)
	r.Time("d")()
	if v := r.Counter("a").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if v := r.Gauge("b").Max(); v != 0 {
		t.Errorf("nil gauge max = %g", v)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Durations) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
	if snap.Summary() != "" {
		t.Errorf("nil summary = %q", snap.Summary())
	}
}

func TestSummaryIsSortedAndComplete(t *testing.T) {
	r := New()
	r.Counter(MetricModelsTrained).Add(7)
	r.Gauge(MetricQueueDepth).Set(3)
	r.Histogram(PhaseDiscover).Observe(time.Second)
	s := r.Snapshot().Summary()
	for _, want := range []string{
		MetricModelsTrained + "=7",
		MetricQueueDepth + "=3/max3",
		PhaseDiscover + "=1.000s(1)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	if idx := strings.Index(s, "discover."); idx > strings.Index(s, "phase.") {
		t.Errorf("summary not sorted: %q", s)
	}
}

// TestConcurrentUse exercises every metric type from many goroutines; run
// under -race this proves the lock-free paths are sound.
func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c"] != 8000 {
		t.Errorf("counter = %d, want 8000", snap.Counters["c"])
	}
	if snap.Gauges["g"].Max != 999 {
		t.Errorf("gauge max = %g, want 999", snap.Gauges["g"].Max)
	}
	if snap.Durations["h"].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", snap.Durations["h"].Count)
	}
}

func TestPhasesOrder(t *testing.T) {
	ps := Phases()
	if len(ps) == 0 || ps[0] != PhaseLoad {
		t.Errorf("Phases() = %v", ps)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{2 * time.Second, "2.000s"},
		{3500 * time.Microsecond, "3.500ms"},
		{750 * time.Microsecond, "750µs"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
