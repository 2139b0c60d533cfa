package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// child is a CLI process the benchmark started: a crrserve node or the
// crrrouter.
type child struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *logTail

	exited   chan struct{}
	waitErr  error
	stopOnce sync.Once
	rssMB    float64
	stopErr  error
}

// logTail keeps the last part of a child's output and picks the listen
// address out of its "listening on <addr>" line.
type logTail struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

const logTailBytes = 16 << 10

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.sent {
		const marker = "listening on "
		if i := bytes.Index(l.buf, []byte(marker)); i >= 0 {
			rest := l.buf[i+len(marker):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				if f := strings.Fields(string(rest[:j])); len(f) > 0 {
					l.addr <- strings.TrimRight(f[0], ",") // buffered; sent once
					l.sent = true
				}
			}
		}
	}
	if l.sent && len(l.buf) > logTailBytes {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-logTailBytes:]...)
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}

// startChild starts bin/name with args, which must include -addr
// 127.0.0.1:0, and returns once the process reports its listen address.
// The child is killed if the benchmark process dies first.
func startChild(ctx context.Context, bin, name string, args ...string) (*child, error) {
	if bin == "" {
		return nil, errors.New("no -bin directory: run crrperf through run.sh, which builds crrserve and crrrouter")
	}
	c := &child{name: name, log: &logTail{addr: make(chan string, 1)}, exited: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(bin, name), args...)
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case addr := <-c.log.addr:
		c.url = "http://" + addr
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", name, c.waitErr, c.log)
	case <-timeout.C:
		c.stop()
		return nil, fmt.Errorf("%s did not report a listen address in 30s\n%s", name, c.log)
	case <-ctx.Done():
		c.stop()
		return nil, ctx.Err()
	}
}

// stop records the child's peak resident set, asks it to drain and exit,
// kills it after 10 s and waits for it. Repeated calls are no-ops.
func (c *child) stop() (rssMB float64, err error) {
	c.stopOnce.Do(func() {
		hwm, hwmErr := procStatus(c.cmd.Process.Pid, "VmHWM")
		c.rssMB = float64(hwm) / 1e6
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // the process may already be gone
		select {
		case <-c.exited:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.exited
			c.stopErr = fmt.Errorf("%s ignored SIGTERM for 10s and was killed", c.name)
		}
		if c.stopErr == nil && c.waitErr != nil {
			c.stopErr = fmt.Errorf("%s: %v\n%s", c.name, c.waitErr, c.log)
		}
		if c.stopErr == nil && hwmErr != nil {
			c.stopErr = fmt.Errorf("%s: %w", c.name, hwmErr)
		}
	})
	return c.rssMB, c.stopErr
}

// cpu returns the user+system CPU time the child has used so far.
func (c *child) cpu() (time.Duration, error) { return procCPU(c.cmd.Process.Pid) }

// stopAll stops every child and returns the highest peak RSS among them.
func stopAll(cs ...*child) (peakMB float64, err error) {
	var errs []error
	for _, c := range cs {
		if c == nil {
			continue
		}
		rss, err := c.stop()
		peakMB = max(peakMB, rss)
		errs = append(errs, err)
	}
	return peakMB, errors.Join(errs...)
}

// httpClient returns a client that opens at most conns connections per
// host: the load generator's connection budget.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// getJSON fetches url into out; a non-200 answer is an error.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// health is the part of a /healthz answer the benchmark reads, from a node
// (generation) or the router (nodes_up).
type health struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	NodesUp    int    `json:"nodes_up"`
}

// waitHealthy polls url/healthz every 10 ms until ready accepts the answer.
func waitHealthy(ctx context.Context, hc *http.Client, url string, ready func(health) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h health
		err := getJSON(ctx, hc, url+"/healthz", &h)
		if err == nil && ready(h) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 30s (last answer %+v, %v)", url, h, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// publish stores artifact as tenant's next version on a registry node and
// activates it.
func publish(ctx context.Context, hc *http.Client, nodeURL, tenant string, artifact []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, nodeURL+"/v1/registry/publish", bytes.NewReader(artifact))
	if err != nil {
		return err
	}
	req.Header.Set("X-CRR-Tenant", tenant)
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("publish %s to %s: HTTP %d: %s", tenant, nodeURL, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// scrape reads a Prometheus text exposition (GET /metrics) into a map from
// sample name to value.
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: HTTP %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// delta returns after[name] − before[name].
func delta(before, after map[string]float64, name string) float64 { return after[name] - before[name] }

// loopStats is what a load loop saw.
type loopStats struct {
	lat    []float64 // ms per request: from its due time (open loop) or its send (closed loop)
	late   []float64 // ms each open-loop request started after it was due
	failed int
	took   time.Duration
}

// openLoop sends requests on a fixed schedule regardless of how fast the
// system answers: request i is due at start + i/rate, for dur. senders
// goroutines share the schedule, which caps the connections in use; when
// all of them are busy a due request waits, and that wait is part of its
// latency. send must be safe for concurrent use.
func openLoop(ctx context.Context, rate float64, dur time.Duration, senders int, send func(i int) error) loopStats {
	n := int(rate * dur.Seconds())
	st := loopStats{lat: make([]float64, n), late: make([]float64, n)}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				st.late[i] = ms(time.Since(due))
				if err := send(i); err != nil {
					failed.Add(1)
				}
				st.lat[i] = ms(time.Since(due))
			}
		}()
	}
	wg.Wait()
	st.took = time.Since(start)
	st.failed = int(failed.Load())
	return st
}

// sleepUntil blocks until t in nanosleep(2), not time.Sleep: on a 2-vCPU
// virtual machine time.Sleep overshot a 1.7 ms sleep by a median 0.46 ms
// and nanosleep by 0.07 ms, and an open loop counts every overshoot as
// latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// closedLoop runs senders goroutines that each send their next request as
// soon as the previous one is answered, for dur.
func closedLoop(ctx context.Context, dur time.Duration, senders int, send func(i int) error) loopStats {
	var mu sync.Mutex
	var st loopStats
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				t := time.Now()
				if err := send(int(next.Add(1) - 1)); err != nil {
					failed.Add(1)
				}
				d := ms(time.Since(t))
				mu.Lock()
				st.lat = append(st.lat, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.took = time.Since(start)
	st.failed = int(failed.Load())
	return st
}
