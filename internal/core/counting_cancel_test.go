package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// countingCtx is a context whose Err() flips to context.Canceled after a
// fixed number of polls and whose Done() channel never fires. Every lattice
// worker polls ctx.Err() at each queue pop, so sweeping the limit drives
// cancellation through every pop point without relying on goroutine timing.
type countingCtx struct {
	limit int64
	calls atomic.Int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) Done() <-chan struct{}                   { return nil }
func (c *countingCtx) Deadline() (deadline time.Time, ok bool) { return }
func (c *countingCtx) Value(key any) any                       { return nil }

// TestDiscoverSeqCancelEveryPop sweeps the cancellation point across every
// context poll of a sequential mine and requires the full contract at each:
// ErrCanceled wrapping context.Canceled and a nil result — never a partial
// rule set.
func TestDiscoverSeqCancelEveryPop(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 5)
	cfg := discoverCfg(rel, 0.5)

	probe := &countingCtx{limit: 1 << 30}
	if _, err := Discover(probe, rel, WithConfig(cfg)); err != nil {
		t.Fatal(err)
	}
	total := int(probe.calls.Load())
	if total < 2 {
		t.Fatalf("one worker polled the context %d times; the sweep needs more", total)
	}
	step := 1
	if total > 64 { // bound the sweep on deep mines, still crossing every region
		step = total / 64
	}
	for limit := 0; limit < total; limit += step {
		res, err := Discover(&countingCtx{limit: int64(limit)}, rel, WithConfig(cfg))
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: err = %v, want ErrCanceled wrapping context.Canceled", limit, err)
		}
		if res != nil {
			t.Fatalf("limit %d: canceled discovery returned a partial result", limit)
		}
	}
}

// TestDiscoverParallelCancelByPolling drives cancellation with several
// workers purely through Err() polling — Done() never fires. Each worker
// must notice at its next pop, and waiting workers must be woken to see it.
func TestDiscoverParallelCancelByPolling(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 5)
	cfg := discoverCfg(rel, 0.5)
	cfg.Workers = 4
	for _, limit := range []int64{0, 1, 2, 3, 5, 8, 13} {
		res, err := Discover(&countingCtx{limit: limit}, rel, WithConfig(cfg))
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: err = %v, want ErrCanceled wrapping context.Canceled", limit, err)
		}
		if res != nil {
			t.Fatalf("limit %d: canceled parallel discovery returned a partial result", limit)
		}
	}
}
