package colstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/telemetry"
)

// testRelation builds a relation exercising every lane type: nullable
// numerics, a small-dictionary categorical, and a wide categorical whose
// dictionary crosses the smallDict probe→map promotion threshold.
func testRelation(n int, seed int64) *dataset.Relation {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric},
		dataset.Attribute{Name: "cat", Kind: dataset.Categorical},
		dataset.Attribute{Name: "wide", Kind: dataset.Categorical},
	)
	rng := rand.New(rand.NewSource(seed))
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		t := dataset.Tuple{
			dataset.Num(rng.NormFloat64()),
			dataset.Num(rng.NormFloat64() * 10),
			dataset.Str([]string{"a", "b", "c"}[rng.Intn(3)]),
			dataset.Str(fmt.Sprintf("w%02d", rng.Intn(40))),
		}
		if rng.Intn(9) == 0 {
			t[0] = dataset.Null()
		}
		if rng.Intn(11) == 0 {
			t[2] = dataset.Null()
		}
		rel.MustAppend(t)
	}
	return rel
}

// sameColumns asserts bitwise lane identity between a store-backed
// ColumnSet and the in-memory mirror: values, codes, dictionary order and
// null bits.
func sameColumns(t *testing.T, got, want *dataset.ColumnSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("rows %d, want %d", got.Len(), want.Len())
	}
	for a := 0; a < want.Schema.Len(); a++ {
		gd, wd := got.Dict(a), want.Dict(a)
		if len(gd) != len(wd) {
			t.Fatalf("attr %d: dict %d vs %d entries", a, len(gd), len(wd))
		}
		for i := range wd {
			if gd[i] != wd[i] {
				t.Fatalf("attr %d dict[%d]: %q vs %q (first-appearance order broken)", a, i, gd[i], wd[i])
			}
		}
		if got.HasNulls(a) != want.HasNulls(a) {
			t.Fatalf("attr %d: HasNulls %v vs %v", a, got.HasNulls(a), want.HasNulls(a))
		}
		for r := 0; r < want.Len(); r++ {
			if want.Schema.Attr(a).Kind == dataset.Numeric {
				if math.Float64bits(got.Float(a)[r]) != math.Float64bits(want.Float(a)[r]) {
					t.Fatalf("attr %d row %d: %v vs %v", a, r, got.Float(a)[r], want.Float(a)[r])
				}
			} else if got.Codes(a)[r] != want.Codes(a)[r] {
				t.Fatalf("attr %d row %d: code %d vs %d", a, r, got.Codes(a)[r], want.Codes(a)[r])
			}
			if got.IsNull(a, r) != want.IsNull(a, r) {
				t.Fatalf("attr %d row %d: null %v vs %v", a, r, got.IsNull(a, r), want.IsNull(a, r))
			}
		}
	}
}

// TestStoreRoundTrip: build → open must reproduce the in-memory ColumnSet
// bitwise, for chunk sizes that split dictionaries mid-file, and report the
// mapped volume.
func TestStoreRoundTrip(t *testing.T) {
	rel := testRelation(1000, 7)
	want := dataset.NewColumnSet(rel)
	for _, chunk := range []int{0, 1, 7, 64, 333, 5000} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := Build(dir, rel, chunk); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		reg := telemetry.New()
		st, err := OpenWith(dir, OpenOptions{VerifyChecksums: true, Telemetry: reg})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		sameColumns(t, st.Columns(), want)
		if b := reg.Counter(telemetry.MetricColstoreBytesMapped).Value(); b <= 0 {
			t.Fatalf("chunk %d: bytes_mapped %d", chunk, b)
		}
		if err := st.Verify(context.Background()); err != nil {
			t.Fatalf("chunk %d verify: %v", chunk, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("chunk %d close: %v", chunk, err)
		}
	}
}

// TestChunkInvariance: the on-disk bytes must not depend on the run length —
// dictionary merge order is first-appearance regardless of chunking, so two
// builds of the same rows with different ChunkRows are byte-identical.
func TestChunkInvariance(t *testing.T) {
	rel := testRelation(700, 3)
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	if err := Build(dirA, rel, 10); err != nil {
		t.Fatal(err)
	}
	if err := Build(dirB, rel, 100000); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, e.Name()))
		if err != nil {
			t.Fatalf("%s missing in second build: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between chunk sizes", e.Name())
		}
	}
}

// TestDictGrowsAcrossChunks is the cross-chunk code-stability regression
// test: with a 5-row run length and a stream whose dictionary crosses the
// probe→map promotion threshold mid-file, codes assigned in early chunks
// must stay stable and the final dictionary must be global first-appearance.
func TestDictGrowsAcrossChunks(t *testing.T) {
	schema := dataset.MustSchema(dataset.Attribute{Name: "c", Kind: dataset.Categorical})
	rel := dataset.NewRelation(schema)
	// 50 distinct values (> smallDict 16), interleaved with repeats of the
	// earliest values so early codes are re-emitted after later chunks have
	// grown the dictionary past the promotion threshold.
	for i := 0; i < 400; i++ {
		v := fmt.Sprintf("v%02d", i%50)
		if i%7 == 0 {
			v = "v00"
		}
		rel.MustAppend(dataset.Tuple{dataset.Str(v)})
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := Build(dir, rel, 5); err != nil {
		t.Fatal(err)
	}
	st, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sameColumns(t, st.Columns(), dataset.NewColumnSet(rel))
}

// TestZeroAndTinyStores: empty and single-row stores open cleanly.
func TestZeroAndTinyStores(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Kind: dataset.Categorical},
	)
	for _, n := range []int{0, 1} {
		rel := dataset.NewRelation(schema)
		for i := 0; i < n; i++ {
			rel.MustAppend(dataset.Tuple{dataset.Num(1), dataset.Str("a")})
		}
		dir := filepath.Join(t.TempDir(), "store")
		if err := Build(dir, rel, 0); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		st, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if st.Rows() != n {
			t.Fatalf("n=%d: rows %d", n, st.Rows())
		}
		st.Close()
	}
}

// TestOpenRejectsDamage: every class of on-disk damage must error with
// ErrCorrupt (or ErrVersion), never panic.
func TestOpenRejectsDamage(t *testing.T) {
	rel := testRelation(200, 5)
	build := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "store")
		if err := Build(dir, rel, 64); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	damage := []struct {
		name string
		hit  func(t *testing.T, dir string)
		want error
	}{
		{"missing manifest", func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, manifestName))
		}, nil},
		{"manifest junk", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, manifestName), []byte("{"), 0o644)
		}, ErrCorrupt},
		{"wrong format", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"format":"nope","version":1}`), 0o644)
		}, ErrCorrupt},
		{"future version", func(t *testing.T, dir string) {
			man, _ := os.ReadFile(filepath.Join(dir, manifestName))
			os.WriteFile(filepath.Join(dir, manifestName),
				bytes.Replace(man, []byte(`"version": 1`), []byte(`"version": 99`), 1), 0o644)
		}, ErrVersion},
		{"truncated lane", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "col0.f64")
			st, _ := os.Stat(path)
			os.Truncate(path, st.Size()-8)
		}, ErrCorrupt},
		{"truncated below header", func(t *testing.T, dir string) {
			os.Truncate(filepath.Join(dir, "col0.f64"), 10)
		}, ErrCorrupt},
		{"bad magic", func(t *testing.T, dir string) {
			flipBytes(t, filepath.Join(dir, "col2.codes"), 0)
		}, ErrCorrupt},
		{"dict checksum", func(t *testing.T, dir string) {
			st, _ := os.Stat(filepath.Join(dir, "col2.dict"))
			flipBytes(t, filepath.Join(dir, "col2.dict"), st.Size()-1)
		}, ErrCorrupt},
		{"bitmap checksum", func(t *testing.T, dir string) {
			st, _ := os.Stat(filepath.Join(dir, "col0.nulls"))
			flipBytes(t, filepath.Join(dir, "col0.nulls"), st.Size()-1)
		}, ErrCorrupt},
		{"code out of dictionary", func(t *testing.T, dir string) {
			// Overwrite a code cell with a huge value; the dict-bounds scan
			// at open must reject it (the lane CRC is not read by default).
			f, err := os.OpenFile(filepath.Join(dir, "col2.codes"), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteAt([]byte{0xfe, 0xff, 0xff, 0x7f}, headerSize)
			f.Close()
		}, ErrCorrupt},
		{"manifest escapes dir", func(t *testing.T, dir string) {
			man, _ := os.ReadFile(filepath.Join(dir, manifestName))
			os.WriteFile(filepath.Join(dir, manifestName),
				bytes.Replace(man, []byte(`"col0.f64"`), []byte(`"../col0.f64"`), 1), 0o644)
		}, ErrCorrupt},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := build(t)
			d.hit(t, dir)
			_, err := OpenWith(dir, OpenOptions{})
			if err == nil {
				t.Fatal("damaged store opened")
			}
			if d.want != nil && !errors.Is(err, d.want) {
				t.Fatalf("got %v, want %v", err, d.want)
			}
		})
	}
}

// TestLaneChecksumOnDemand: a flipped byte deep in a numeric lane passes the
// default open (headers only) but must be caught by VerifyChecksums and by
// Store.Verify.
func TestLaneChecksumOnDemand(t *testing.T) {
	rel := testRelation(300, 9)
	dir := filepath.Join(t.TempDir(), "store")
	if err := Build(dir, rel, 64); err != nil {
		t.Fatal(err)
	}
	flipBytes(t, filepath.Join(dir, "col1.f64"), headerSize+40)
	st, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("default open should not read lane payloads: %v", err)
	}
	if err := st.Verify(context.Background()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify: got %v, want ErrCorrupt", err)
	}
	st.Close()
	if _, err := OpenWith(dir, OpenOptions{VerifyChecksums: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyChecksums open: got %v, want ErrCorrupt", err)
	}
}

// TestBuilderArity: a bad tuple poisons the build with the dataset sentinel.
func TestBuilderArity(t *testing.T) {
	schema := dataset.MustSchema(dataset.Attribute{Name: "x", Kind: dataset.Numeric})
	dir := filepath.Join(t.TempDir(), "store")
	b, err := NewBuilder(dir, schema, BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(dataset.Tuple{dataset.Num(1), dataset.Num(2)}); !errors.Is(err, dataset.ErrArityMismatch) {
		t.Fatalf("got %v, want ErrArityMismatch", err)
	}
	if err := b.Finish(); err == nil {
		t.Fatal("poisoned builder finished")
	}
	b.Abort()
}

// TestDoubleBuildRejected: pointing a builder at an existing store fails
// instead of silently clobbering it.
func TestDoubleBuildRejected(t *testing.T) {
	rel := testRelation(10, 1)
	dir := filepath.Join(t.TempDir(), "store")
	if err := Build(dir, rel, 0); err != nil {
		t.Fatal(err)
	}
	if err := Build(dir, rel, 0); err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("got %v", err)
	}
}

// flipBytes XORs one byte of a file at offset.
func flipBytes(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
