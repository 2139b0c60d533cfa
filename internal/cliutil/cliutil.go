// Package cliutil holds what the CLIs share: the conversions they use when
// talking to a remote crrserve through pkg/client (dataset.Relation ⇄ the
// SDK's public batch/tuple shapes), kept here so the public SDK surface
// stays free of internal types, and the -metrics writer.
package cliutil

import (
	"fmt"
	"io"
	"os"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/telemetry"
	"github.com/crrlab/crr/pkg/client"
)

// WriteMetrics writes snap in the Prometheus text exposition crrserve serves
// at GET /metrics: to w when path is "-", else to the file at path.
func WriteMetrics(w io.Writer, path string, snap telemetry.Snapshot) error {
	if path == "-" {
		return snap.WriteText(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ClientBatch columnarizes rel into an SDK batch, nulls preserved.
func ClientBatch(rel *dataset.Relation) (*client.Batch, error) {
	b := client.NewBatch()
	n := rel.Len()
	for a := 0; a < rel.Schema.Len(); a++ {
		attr := rel.Schema.Attr(a)
		var nulls []bool
		for r := 0; r < n; r++ {
			if rel.Tuples[r][a].Null {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[r] = true
			}
		}
		if attr.Kind == dataset.Numeric {
			vals := make([]float64, n)
			for r := 0; r < n; r++ {
				vals[r] = rel.Tuples[r][a].Num
			}
			b.Float64(attr.Name, vals, nulls)
		} else {
			vals := make([]string, n)
			for r := 0; r < n; r++ {
				vals[r] = rel.Tuples[r][a].Str
			}
			b.String(attr.Name, vals, nulls)
		}
	}
	return b, b.Err()
}

// RelationFromMaps rebuilds a relation over schema from the SDK's
// name-keyed tuples (an impute response), so the result can go back out
// through dataset.WriteCSV. Unknown keys are rejected; absent or nil values
// become nulls.
func RelationFromMaps(schema *dataset.Schema, tuples []map[string]any) (*dataset.Relation, error) {
	rel := &dataset.Relation{Schema: schema, Tuples: make([]dataset.Tuple, len(tuples))}
	for i, obj := range tuples {
		for name := range obj {
			if _, err := schema.Index(name); err != nil {
				return nil, fmt.Errorf("tuple %d: unknown attribute %q", i, name)
			}
		}
		t := make(dataset.Tuple, schema.Len())
		for a := 0; a < schema.Len(); a++ {
			attr := schema.Attr(a)
			raw, ok := obj[attr.Name]
			if !ok || raw == nil {
				t[a] = dataset.Null()
				continue
			}
			switch v := raw.(type) {
			case float64:
				if attr.Kind != dataset.Numeric {
					return nil, fmt.Errorf("tuple %d: attribute %q is categorical, got number", i, attr.Name)
				}
				t[a] = dataset.Num(v)
			case string:
				if attr.Kind != dataset.Categorical {
					return nil, fmt.Errorf("tuple %d: attribute %q is numeric, got string", i, attr.Name)
				}
				t[a] = dataset.Str(v)
			default:
				return nil, fmt.Errorf("tuple %d: attribute %q has unsupported type %T", i, attr.Name, raw)
			}
		}
		rel.Tuples[i] = t
	}
	return rel, nil
}
