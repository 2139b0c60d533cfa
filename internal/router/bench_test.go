package router

import (
	"context"
	"testing"

	"github.com/crrlab/crr/internal/cliutil"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/serve"
	"github.com/crrlab/crr/pkg/client"
)

// Router overhead: the same 1k-row binary columnar batch predict through the
// SDK, once straight at the owning node and once through the router front
// door. Both paths cross real TCP loopback sockets, so the delta is the
// router's own cost — admit, ring lookup, body buffering, one extra hop.
// The acceptance bar is a routed/direct ns/op ratio ≤ 1.15 on this workload.

// benchPredictLoop drives binary batch predicts at the given base URL.
func benchPredictLoop(b *testing.B, url string, rel *dataset.Relation) {
	b.Helper()
	c := client.New(url, client.WithFormat(client.FormatBinary))
	ctx := context.Background()
	// One warm-up call so connection setup and format negotiation happen
	// outside the timed region on both paths.
	warm, err := cliutil.ClientBatch(rel)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Predict(ctx, warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := cliutil.ClientBatch(rel)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Predict(ctx, batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Values) != rel.Len() {
			b.Fatalf("%d predictions for %d rows", len(res.Values), rel.Len())
		}
	}
}

// BenchmarkDirectBatchPredictBinary is the baseline: SDK → owning node.
func BenchmarkDirectBatchPredictBinary(b *testing.B) {
	rel, rules := mineTax(b, 1000)
	f := newFleet(b, Config{}, rules)
	cands := f.tracker.Route(serve.DefaultTenant)
	if len(cands) == 0 {
		b.Fatal("no candidates for default tenant")
	}
	benchPredictLoop(b, cands[0].URL, rel)
}

// BenchmarkRouterBatchPredictBinary is the same workload through the router.
func BenchmarkRouterBatchPredictBinary(b *testing.B) {
	rel, rules := mineTax(b, 1000)
	f := newFleet(b, Config{}, rules)
	benchPredictLoop(b, f.rts.URL, rel)
}
