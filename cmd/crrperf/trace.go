package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is 0 for a root span. Times are nanoseconds since the
// tracer started.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code at the cost of a nil check.
type tracer struct {
	t0       time.Time
	workload string

	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Workload: t.workload, Name: name, StartNS: now})
	return t.next
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Spans are appended in id order, so id-1 is the span's index.
	t.spans[id-1].EndNS = now
}

// do runs fn inside a span named name under parent and returns the span's
// duration, which callers use even when t is nil.
func (t *tracer) do(parent int64, name string, fn func(id int64)) time.Duration {
	id := t.begin(parent, name)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.end(id)
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover, keyed by span id.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, reach), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapWatch samples the live-and-unswept heap (the value MemStats.HeapAlloc
// reports) every 5 ms and keeps the highest reading since the last reset.
// It reads runtime/metrics, which does not stop the world, into a reused
// sample, so sampling neither pauses nor allocates in the measured code's
// process (core.mallocs counts every allocation of the process).
type heapWatch struct {
	mu     sync.Mutex
	sample [1]metrics.Sample
	peak   uint64
	stop   chan struct{}
	done   chan struct{}
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.sample[0].Name = "/memory/classes/heap/objects:bytes"
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.observe()
			}
		}
	}()
	return w
}

// read samples the heap; w.mu must be held.
func (w *heapWatch) read() uint64 {
	metrics.Read(w.sample[:])
	return w.sample[0].Value.Uint64()
}

func (w *heapWatch) observe() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peak = max(w.peak, w.read())
}

// reset returns the peak since the previous reset, including a final
// sample, and starts a new interval.
func (w *heapWatch) reset() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	peak := max(w.peak, w.read())
	w.peak = w.read()
	return peak
}

func (w *heapWatch) close() {
	close(w.stop)
	<-w.done
}

// procStatus returns a size field of /proc/<pid>/status, such as VmRSS
// (the resident set now) or VmHWM (its peak), in bytes. The ru_maxrss that
// wait4 reports is no substitute for VmHWM for a child of this process: the
// child starts in this process's address space (vfork, then exec), and
// Linux keeps that space's high-water mark as the child's maxrss.
func procStatus(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %s %q", pid, field, v)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// rssWatch samples the summed resident set of a set of processes every
// 20 ms. The peak of a garbage-collected process is one extreme reading
// that moves with GC timing; a high percentile of the samples is its
// steady high-water level.
type rssWatch struct {
	mu      sync.Mutex
	samples []float64 // MB
	err     error
	stop    chan struct{}
	done    chan struct{}
}

func watchRSS(pids ...int) *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				var sum int64
				for _, pid := range pids {
					v, err := procStatus(pid, "VmRSS")
					if err != nil {
						w.mu.Lock()
						w.err = err
						w.mu.Unlock()
						return
					}
					sum += v
				}
				w.mu.Lock()
				w.samples = append(w.samples, float64(sum)/1e6)
				w.mu.Unlock()
			}
		}
	}()
	return w
}

// close stops sampling and returns the samples in MB.
func (w *rssWatch) close() ([]float64, error) {
	close(w.stop)
	<-w.done
	return w.samples, w.err
}

// clockTicks is USER_HZ, the unit of the CPU counters in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time a process has used so far, read
// from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesized and may hold spaces; the
	// fields after the last ')' start at field 3 (state).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed cpu fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}
