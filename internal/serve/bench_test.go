package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/wire"
)

// benchPredictBody drives the full /v1/predict handler stack with a
// pre-encoded body under the given content type.
func benchPredictBody(b *testing.B, contentType string, body []byte) {
	b.Helper()
	_, rules := taxRules(b, 1500)
	srv, err := NewFromRuleSet(Config{}, rules, "bench")
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// benchBatch deterministically grows the Tax dataset to n rows.
func benchBatch(b *testing.B, n int) *dataset.Relation {
	b.Helper()
	rel := dataset.GenerateTax(dataset.TaxConfig{Rows: n, Noise: 0.5, Seed: 4})
	return rel
}

func jsonPredictBody(b *testing.B, rel *dataset.Relation) []byte {
	b.Helper()
	objs := make([]map[string]any, rel.Len())
	for i, tp := range rel.Tuples {
		objs[i] = encodeTuple(rel.Schema, tp)
	}
	body, err := json.Marshal(map[string]any{"tuples": objs})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func binaryPredictBody(b *testing.B, rel *dataset.Relation) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := wire.EncodeBatch(&buf, batchFromColumnSet(dataset.NewColumnSet(rel)), wire.EncodeOptions{}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkServeBatchPredict measures the full JSON /v1/predict path for a
// 1000-tuple batch — decode, columnar classification, encode — through the
// real handler stack. It is the JSON baseline the binary format is measured
// against.
func BenchmarkServeBatchPredict(b *testing.B) {
	rel := benchBatch(b, 1000)
	benchPredictBody(b, "application/json", jsonPredictBody(b, rel))
}

// BenchmarkServeBatchPredictBinary is the same handler stack fed the binary
// columnar format, to compare with BenchmarkServeBatchPredict.
func BenchmarkServeBatchPredictBinary(b *testing.B) {
	rel := benchBatch(b, 1000)
	benchPredictBody(b, wire.ContentType, binaryPredictBody(b, rel))
}

// The 100k-row pair exercises the multi-frame streaming path (13 frames at
// the default chunk size) where JSON's per-tuple costs dominate hardest.
func BenchmarkServeBatchPredict100k(b *testing.B) {
	rel := benchBatch(b, 100_000)
	benchPredictBody(b, "application/json", jsonPredictBody(b, rel))
}

func BenchmarkServeBatchPredictBinary100k(b *testing.B) {
	rel := benchBatch(b, 100_000)
	benchPredictBody(b, wire.ContentType, binaryPredictBody(b, rel))
}

// BenchmarkPredictBatchColumnar isolates the classification core from HTTP
// and JSON: columnar PredictBatch vs the tuple-at-a-time Predict loop on the
// same relation and rule set.
func BenchmarkPredictBatchColumnar(b *testing.B) {
	rel, rules := taxRules(b, 1500)
	batch := rel.Head(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules.PredictBatch(batch)
	}
}

func BenchmarkPredictBatchRowwise(b *testing.B) {
	rel, rules := taxRules(b, 1500)
	batch := rel.Head(1000)
	preds := make([]float64, batch.Len())
	covered := make([]bool, batch.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tp := range batch.Tuples {
			preds[j], covered[j] = rules.Predict(tp)
		}
	}
}
