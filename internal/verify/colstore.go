package verify

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/crrlab/crr/internal/colstore"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
)

// The out-of-core oracle: the mmap'd column store must be a perfect mirror
// of the in-memory columnar representation. The target's relation is built
// into an on-disk store with a deliberately small chunk budget (so the build
// exercises run-partitioned dictionary merging and multi-chunk flushing),
// re-opened with full checksum verification, and checked two ways:
//
//   - lane parity: every numeric lane, code lane, dictionary and null bitmap
//     of the adopted ColumnSet must be bitwise-identical to the ColumnSet
//     built directly from the relation;
//   - discovery parity: DiscoverColumns over the store must reproduce the
//     canonical one-worker columnar rule set bitwise — conditions, ρ bits
//     and model coefficients;
//   - prune parity: Prune of the dense-space rule set over the store's
//     ColumnSet must write the same artifact bytes as Prune over the
//     ColumnSet built from the relation.

// colstoreChunkRows keeps the oracle build multi-chunk on every target size.
const colstoreChunkRows = 173

// colstoreOracle builds, reopens and diffs the store. rules is the canonical
// one-worker columnar result from the discovery matrix, dense the set the
// prune oracle mined over the paper-default space.
func (rn *runner) colstoreOracle(ctx context.Context, t Target, rules, dense *core.RuleSet) error {
	dir, err := os.MkdirTemp("", "crr-verify-colstore-*")
	if err != nil {
		return fmt.Errorf("colstore oracle: %w", err)
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")

	if err := colstore.Build(storeDir, t.Rel, colstoreChunkRows); err != nil {
		rn.fail("colstore/build", err.Error())
		return nil
	}
	st, err := colstore.OpenWith(storeDir, colstore.OpenOptions{
		VerifyChecksums: true,
		Telemetry:       rn.opts.Telemetry,
	})
	if err != nil {
		rn.fail("colstore/open", err.Error())
		return nil
	}
	defer st.Close()

	rn.check("colstore/lanes-bitwise", diffColumnSets(dataset.NewColumnSet(t.Rel), st.Columns()))

	cfg := baseConfig(t, t.Rel, rn.opts.PredSize)
	res, err := core.DiscoverColumns(ctx, st.Columns(), core.WithConfig(cfg))
	if err != nil {
		return fmt.Errorf("colstore oracle: discover over store: %w", err)
	}
	rn.check("colstore/discover-bitwise", diffRuleSets(rules, res.Rules))

	var want, got bytes.Buffer
	for _, run := range []struct {
		cols *dataset.ColumnSet
		out  *bytes.Buffer
	}{{dataset.NewColumnSet(t.Rel), &want}, {st.Columns(), &got}} {
		pruned, _, err := core.Prune(run.cols, dense, core.PruneOptions{RhoM: t.RhoM})
		if err != nil {
			return fmt.Errorf("colstore oracle: prune: %w", err)
		}
		if err := core.WriteRuleSet(run.out, pruned); err != nil {
			return fmt.Errorf("colstore oracle: encode pruned set: %w", err)
		}
	}
	detail := ""
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		detail = fmt.Sprintf("pruned artifact differs: %d bytes from the relation, %d from the store", want.Len(), got.Len())
	}
	rn.check("colstore/prune-bitwise", detail)
	return nil
}

// diffColumnSets compares two column sets lane by lane, bitwise, returning
// "" on identity and the first disagreement otherwise.
func diffColumnSets(want, got *dataset.ColumnSet) string {
	if want.Len() != got.Len() {
		return fmt.Sprintf("row count %d vs %d", want.Len(), got.Len())
	}
	if w, g := want.Schema.Len(), got.Schema.Len(); w != g {
		return fmt.Sprintf("schema arity %d vs %d", w, g)
	}
	for a := 0; a < want.Schema.Len(); a++ {
		attr := want.Schema.Attr(a)
		if g := got.Schema.Attr(a); g != attr {
			return fmt.Sprintf("attr %d: %+v vs %+v", a, attr, g)
		}
		if attr.Kind == dataset.Numeric {
			w, g := want.Float(a), got.Float(a)
			for r := range w {
				if math.Float64bits(w[r]) != math.Float64bits(g[r]) {
					return fmt.Sprintf("attr %d row %d: %g vs %g", a, r, w[r], g[r])
				}
			}
		} else {
			wc, gc := want.Codes(a), got.Codes(a)
			for r := range wc {
				if wc[r] != gc[r] {
					return fmt.Sprintf("attr %d row %d: code %d vs %d", a, r, wc[r], gc[r])
				}
			}
			wd, gd := want.Dict(a), got.Dict(a)
			if len(wd) != len(gd) {
				return fmt.Sprintf("attr %d: dictionary size %d vs %d", a, len(wd), len(gd))
			}
			for i := range wd {
				if wd[i] != gd[i] {
					return fmt.Sprintf("attr %d: dictionary entry %d %q vs %q", a, i, wd[i], gd[i])
				}
			}
		}
		for r := 0; r < want.Len(); r++ {
			if want.IsNull(a, r) != got.IsNull(a, r) {
				return fmt.Sprintf("attr %d row %d: null bit %v vs %v", a, r, want.IsNull(a, r), got.IsNull(a, r))
			}
		}
	}
	return ""
}
