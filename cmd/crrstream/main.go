// Command crrstream replays a CSV as a live row stream against a discovered
// rule-set artifact: rows enter a sliding window, per-rule sufficient
// statistics absorb them rank-1, rules are re-fit, and a rule whose refit
// breaks the bias bound ρM on its re-derived selection is retired
// (internal/stream). Refreshed rule sets are periodically swapped out — to a
// JSON artifact on disk (-save), to a running crrserve via its hot reload
// endpoint (-push), or both.
//
// Usage:
//
//	crrstream -input feed.csv -rules rules.json -window 2048
//	crrstream -input feed.csv -rules rules.json -window 2048 \
//	    -rate 500 -swap-every 1000 -push http://127.0.0.1:8080
//
// The CSV must carry the artifact's schema (same header, same column kinds) —
// crrstream refuses a mismatched feed rather than guessing a column mapping.
// -rate throttles the replay to N rows/second (0 replays as fast as the
// maintainer accepts). A telemetry summary — rows ingested, refits, drift
// events (refits beyond ρM), retires, swaps — is printed after the run, with
// the same stream.* metric names crrserve exposes. SIGINT or SIGTERM stops
// the replay after the current row; the final flush still writes -save but
// pushes nothing, and a push in flight is abandoned.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/eval"
	"github.com/crrlab/crr/internal/stream"
	"github.com/crrlab/crr/internal/telemetry"
	"github.com/crrlab/crr/pkg/client"
)

func main() {
	var (
		input     = flag.String("input", "", "input CSV path replayed as the stream (required)")
		rulesPath = flag.String("rules", "", "rule-set artifact to maintain (crrdiscover -save) (required)")
		window    = flag.Int("window", 2048, "sliding-window capacity in rows")
		rate      = flag.Float64("rate", 0, "replay rate in rows/second (0 = unthrottled)")
		warmup    = flag.Int("warmup", 0, "rows ingested before the first swap is considered")
		swapEvery = flag.Int("swap-every", 1000, "consider a swap after this many rows (0 = only at end of stream)")
		rhoM      = flag.Float64("rho", 0, "maximum tolerable bias ρ_M; pass the bound discovery ran with (0 = 1.5 × the artifact's largest ρ, a generous allowance for window-sampling wobble)")
		push      = flag.String("push", "", "crrserve base URL to hot-swap refreshed rule sets into (POST /v1/reload)")
		save      = flag.String("save", "", "write each refreshed rule set as JSON to this path")
		metrics   = flag.String("metrics", "", "write the run's metrics in Prometheus text format to this path (\"-\" = stdout)")
		verbose   = flag.Bool("v", false, "log per-swap progress")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, runConfig{
		input: *input, rulesPath: *rulesPath, window: *window, rate: *rate,
		warmup: *warmup, swapEvery: *swapEvery, rhoM: *rhoM,
		push: *push, save: *save, metrics: *metrics, verbose: *verbose,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "crrstream:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	input, rulesPath  string
	window            int
	rate              float64
	warmup, swapEvery int
	rhoM              float64
	push, save        string
	metrics           string
	verbose           bool
}

func run(ctx context.Context, w io.Writer, rc runConfig) error {
	if rc.input == "" || rc.rulesPath == "" {
		return fmt.Errorf("-input and -rules are required (see -h)")
	}
	rf, err := os.Open(rc.rulesPath)
	if err != nil {
		return err
	}
	rules, err := core.ReadRuleSet(rf)
	rf.Close()
	if err != nil {
		return err
	}
	f, err := os.Open(rc.input)
	if err != nil {
		return err
	}
	defer f.Close()
	rel, err := dataset.ReadCSV(f)
	if err != nil {
		return err
	}
	if err := schemasMatch(rules.Schema, rel.Schema); err != nil {
		return fmt.Errorf("feed does not carry the artifact's schema: %w", err)
	}

	rho := rc.rhoM
	if rho == 0 {
		// Without the discovery bound, allow headroom above the artifact's
		// worst empirical ρ: a window's least-squares refit minimizes SSE,
		// not max residual, so its ρ wobbles with the window's sampling mix
		// and a tight bound would retire healthy rules.
		for i := range rules.Rules {
			if r := rules.Rules[i].Rho; r > rho {
				rho = r
			}
		}
		rho *= 1.5
		if rho == 0 {
			return fmt.Errorf("artifact carries only ρ=0 rules; pass -rho explicitly")
		}
	}
	reg := telemetry.New()
	cfg := stream.Config{Window: rc.window, RhoM: rho, Registry: reg}
	if rc.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "crrstream: "+format+"\n", args...)
		}
	}
	m, err := stream.New(rules, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "maintaining %d rules (y=%s, ρM=%.4g) over a %d-row window, %d-row feed\n",
		rules.NumRules(), rules.YName(), rho, rc.window, rel.Len())

	var pusher *client.Client
	if rc.push != "" {
		pusher = client.New(rc.push)
	}
	var throttle <-chan time.Time
	if rc.rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / rc.rate))
		defer t.Stop()
		throttle = t.C
	}
	swaps := 0
	for i, tp := range rel.Tuples {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(w, "interrupted after %d rows\n", i)
			break
		}
		if throttle != nil {
			<-throttle
		}
		if err := m.Append(tp); err != nil {
			return fmt.Errorf("row %d: %w", i+1, err)
		}
		if rc.swapEvery > 0 && i+1 > rc.warmup && (i+1)%rc.swapEvery == 0 {
			n, err := maybeSwap(ctx, w, m, pusher, rc, i+1)
			if err != nil {
				return err
			}
			swaps += n
		}
	}
	// Final flush: publish the end-of-stream state even off the swap cadence.
	n, err := maybeSwap(ctx, w, m, pusher, rc, rel.Len())
	if err != nil {
		return err
	}
	swaps += n

	st := m.Stats()
	fmt.Fprintf(w, "\ningested %d rows: %d refits, %d drift events, %d retires, %d rebuilds, %d swaps\n",
		st.RowsIngested, st.Refits, st.DriftEvents, st.Retires, st.Rebuilds, swaps)
	fmt.Fprintf(w, "live rules %d of %d, window coverage %.3f\n",
		m.Live(), rules.NumRules(), m.Coverage())
	for _, line := range eval.TelemetrySummary(reg.Snapshot()) {
		fmt.Fprintln(w, line)
	}
	if rc.metrics != "" {
		if err := cliutil.WriteMetrics(w, rc.metrics, reg.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// maybeSwap flushes pending refits and, when anything changed since the last
// snapshot, publishes a refreshed rule set to every configured sink. Returns
// the number of swaps performed (0 or 1). Once ctx is done the rule set is
// still saved but not pushed; a push that ctx cuts short is not an error,
// since the replay stops after this row.
func maybeSwap(ctx context.Context, w io.Writer, m *stream.Maintainer, pusher *client.Client, rc runConfig, row int) (int, error) {
	m.Refit()
	if !m.Changed() {
		return 0, nil
	}
	snap := m.Snapshot()
	if rc.save != "" {
		out, err := os.Create(rc.save)
		if err != nil {
			return 0, err
		}
		if err := core.WriteRuleSet(out, snap); err != nil {
			out.Close()
			return 0, err
		}
		if err := out.Close(); err != nil {
			return 0, err
		}
	}
	if pusher != nil && ctx.Err() == nil {
		var body bytes.Buffer
		if err := core.WriteRuleSet(&body, snap); err != nil {
			return 0, err
		}
		if _, err := pusher.Reload(ctx, &body); err != nil && ctx.Err() == nil {
			return 0, fmt.Errorf("push at row %d: %w", row, err)
		}
	}
	if rc.verbose {
		fmt.Fprintf(w, "row %d: swapped %d live rules\n", row, snap.NumRules())
	}
	return 1, nil
}

// schemasMatch requires the feed to carry exactly the artifact's columns:
// same arity, names and kinds, in order.
func schemasMatch(want, got *dataset.Schema) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("artifact has %d columns, feed has %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		wa, ga := want.Attr(i), got.Attr(i)
		if wa.Name != ga.Name {
			return fmt.Errorf("column %d is %q, artifact wants %q", i, ga.Name, wa.Name)
		}
		if wa.Kind != ga.Kind {
			return fmt.Errorf("column %q kind mismatch (feed inferred %v, artifact wants %v)", wa.Name, ga.Kind, wa.Kind)
		}
	}
	return nil
}
