package colstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"github.com/crrlab/crr/internal/dataset"
)

// BuilderOptions tunes a store build.
type BuilderOptions struct {
	// ChunkRows is the run length: numeric cells stream straight to their
	// lane files, while categorical codes are buffered per run and flushed
	// through the dictionary merge every ChunkRows rows. It bounds the
	// builder's resident state (per-run code buffers + run dictionaries) and
	// is the "spill to partitioned runs" knob for large categorical fans.
	// ≤ 0 selects DefaultChunkRows.
	ChunkRows int
}

// DefaultChunkRows is the default run length: 64k rows keeps a code buffer
// at 256 KiB per categorical column.
const DefaultChunkRows = 1 << 16

// Builder streams rows into a store directory. Numeric lanes and null
// bitmaps are written/accumulated incrementally; categorical columns are
// dict-coded per run with run-local dictionaries (the same smallDict linear
// probe → map promotion as the in-memory ColumnSet) and merged into the
// global first-appearance dictionary at each run flush. Codes already
// flushed in run N are global and final — dictionary growth in run N+1 only
// appends — which is exactly the cross-chunk code-stability contract the
// in-memory builder has, proven by the bitwise parity tests.
//
// A Builder is single-writer. On any error the builder is poisoned: further
// calls return the first error, and only Abort is useful.
type Builder struct {
	dir      string
	schema   *dataset.Schema
	chunk    int
	rows     int64
	inRun    int
	cols     []builderCol
	err      error
	finished bool
}

// builderCol is the per-column build state.
type builderCol struct {
	kind dataset.Kind
	// lane streaming
	path string
	f    *os.File
	w    *bufio.Writer
	crc  hash.Hash32
	// null bitmap, grown in memory (1 bit per row).
	nulls   []uint64
	hasNull bool
	// categorical global dictionary (first-appearance across the stream).
	dict   []string
	lookup map[string]uint32
	// categorical run state, reset at each flush.
	runDict  []string
	runLook  map[string]uint32
	runCodes []uint32
}

// NewBuilder creates the store directory (which must not already hold a
// store) and opens one lane file per schema attribute.
func NewBuilder(dir string, schema *dataset.Schema, opts BuilderOptions) (*Builder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("colstore: %s already holds a store", dir)
	}
	chunk := opts.ChunkRows
	if chunk <= 0 {
		chunk = DefaultChunkRows
	}
	b := &Builder{dir: dir, schema: schema, chunk: chunk, cols: make([]builderCol, schema.Len())}
	for a := 0; a < schema.Len(); a++ {
		col := &b.cols[a]
		col.kind = schema.Attr(a).Kind
		if col.kind == dataset.Numeric {
			col.path = fmt.Sprintf("col%d.f64", a)
		} else {
			col.path = fmt.Sprintf("col%d.codes", a)
			col.lookup = make(map[string]uint32)
		}
		f, err := os.Create(filepath.Join(dir, col.path))
		if err != nil {
			b.Abort()
			return nil, err
		}
		col.f = f
		col.w = bufio.NewWriterSize(f, 1<<16)
		col.crc = crc32.NewIEEE()
		// Header placeholder; the real one lands at Finish once count and
		// checksum are known.
		if _, err := col.w.Write(make([]byte, headerSize)); err != nil {
			b.Abort()
			return nil, err
		}
	}
	return b, nil
}

// Rows returns the number of rows appended so far.
func (b *Builder) Rows() int64 { return b.rows }

// Append streams one row into the store.
func (b *Builder) Append(t dataset.Tuple) error {
	if b.err != nil {
		return b.err
	}
	if b.finished {
		return fmt.Errorf("colstore: append after Finish")
	}
	if len(t) != b.schema.Len() {
		return b.poison(fmt.Errorf("%w: tuple arity %d, schema arity %d", dataset.ErrArityMismatch, len(t), b.schema.Len()))
	}
	row := b.rows
	var scratch [8]byte
	for a := range t {
		col := &b.cols[a]
		v := t[a]
		if col.kind == dataset.Numeric {
			// Raw Num under a null bit (Null() carries 0) — the exact cell
			// the in-memory ColumnSet stores, keeping lanes bitwise-parity.
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v.Num))
			if err := b.writeLane(col, scratch[:]); err != nil {
				return err
			}
			if v.Null {
				col.setNull(row)
			}
			continue
		}
		if v.Null {
			col.setNull(row)
			col.runCodes = append(col.runCodes, dataset.NullCode)
			continue
		}
		col.runCodes = append(col.runCodes, col.runCode(v.Str))
	}
	b.rows++
	b.inRun++
	if b.inRun >= b.chunk {
		if err := b.flushRun(); err != nil {
			return err
		}
	}
	return nil
}

// runCode assigns the run-local dictionary code of s, mirroring the
// in-memory probe discipline: linear scan while the run dictionary stays
// within smallDict, then a spilled map. (dataset.SmallDict is unexported;
// the threshold here must match it — the cross-threshold parity test pins
// the two together.)
const builderSmallDict = 16

func (col *builderCol) runCode(s string) uint32 {
	code, ok := uint32(0), false
	if col.runLook != nil {
		code, ok = col.runLook[s]
	} else {
		for j, v := range col.runDict {
			if v == s {
				code, ok = uint32(j), true
				break
			}
		}
	}
	if !ok {
		code = uint32(len(col.runDict))
		col.runDict = append(col.runDict, s)
		if col.runLook != nil {
			col.runLook[s] = code
		} else if len(col.runDict) > builderSmallDict {
			m := make(map[string]uint32, 2*len(col.runDict))
			for j, v := range col.runDict {
				m[v] = uint32(j)
			}
			col.runLook = m
		}
	}
	return code
}

// setNull marks row null in the in-memory bitmap.
func (col *builderCol) setNull(row int64) {
	col.hasNull = true
	word := int(row >> 6)
	for len(col.nulls) <= word {
		col.nulls = append(col.nulls, 0)
	}
	col.nulls[word] |= 1 << (uint64(row) & 63)
}

// flushRun merges every categorical column's run dictionary into its global
// dictionary (new values appended in run-local first-appearance order, which
// is global first-appearance order — no earlier run saw them) and writes the
// run's codes remapped to global, then resets the run state.
func (b *Builder) flushRun() error {
	if b.err != nil {
		return b.err
	}
	var scratch [4]byte
	for a := range b.cols {
		col := &b.cols[a]
		if col.kind != dataset.Categorical {
			continue
		}
		remap := make([]uint32, len(col.runDict))
		for local, v := range col.runDict {
			g, ok := col.lookup[v]
			if !ok {
				g = uint32(len(col.dict))
				col.dict = append(col.dict, v)
				col.lookup[v] = g
			}
			remap[local] = g
		}
		for _, c := range col.runCodes {
			g := dataset.NullCode
			if c != dataset.NullCode {
				g = remap[c]
			}
			binary.LittleEndian.PutUint32(scratch[:], g)
			if err := b.writeLane(col, scratch[:]); err != nil {
				return err
			}
		}
		col.runDict = col.runDict[:0]
		col.runLook = nil
		col.runCodes = col.runCodes[:0]
	}
	b.inRun = 0
	return nil
}

// writeLane appends payload bytes to a column's lane stream and checksum.
func (b *Builder) writeLane(col *builderCol, p []byte) error {
	if _, err := col.w.Write(p); err != nil {
		return b.poison(err)
	}
	col.crc.Write(p)
	return nil
}

// poison records the first error; the builder refuses further work.
func (b *Builder) poison(err error) error {
	if b.err == nil {
		b.err = err
	}
	return err
}

// AppendRelation streams every tuple of rel.
func (b *Builder) AppendRelation(rel *dataset.Relation) error {
	for _, t := range rel.Tuples {
		if err := b.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// Finish flushes the final run, seals every lane file (final header with
// count and checksum), writes dictionaries and bitmaps, and lands the
// manifest last via temp-file + rename — the versioned-store discipline: a
// crash at any earlier point leaves a directory without a manifest, which
// OpenWith rejects, never a half-store that parses.
func (b *Builder) Finish() error {
	if b.err != nil {
		return b.err
	}
	if b.finished {
		return fmt.Errorf("colstore: Finish called twice")
	}
	if err := b.flushRun(); err != nil {
		return err
	}
	b.finished = true
	man := manifest{Format: manifestFormat, Version: formatVersion, Rows: b.rows}
	words := (b.rows + 63) / 64
	for a := range b.cols {
		col := &b.cols[a]
		kind, laneKind := "numeric", uint32(laneF64)
		if col.kind == dataset.Categorical {
			kind, laneKind = "categorical", uint32(laneU32)
		}
		mc := manifestColumn{Name: b.schema.Attr(a).Name, Kind: kind, Lane: col.path}
		if err := b.sealLane(col, laneKind); err != nil {
			return err
		}
		if col.kind == dataset.Categorical {
			mc.Dict = fmt.Sprintf("col%d.dict", a)
			if err := b.writeDict(mc.Dict, col.dict); err != nil {
				return err
			}
		}
		if col.hasNull {
			mc.Nulls = fmt.Sprintf("col%d.nulls", a)
			bm := col.nulls
			for int64(len(bm)) < words {
				bm = append(bm, 0)
			}
			if err := b.writeBitmap(mc.Nulls, bm[:words]); err != nil {
				return err
			}
		}
		man.Columns = append(man.Columns, mc)
	}
	return b.writeManifest(man)
}

// sealLane flushes a lane stream and rewrites its header in place.
func (b *Builder) sealLane(col *builderCol, kind uint32) error {
	if err := col.w.Flush(); err != nil {
		return b.poison(err)
	}
	elem := uint64(8)
	if kind == laneU32 {
		elem = 4
	}
	h := header{kind: kind, count: uint64(b.rows), payloadLen: uint64(b.rows) * elem, crc: col.crc.Sum32()}
	if _, err := col.f.WriteAt(encodeHeader(h), 0); err != nil {
		return b.poison(err)
	}
	if err := col.f.Sync(); err != nil {
		return b.poison(err)
	}
	err := col.f.Close()
	col.f = nil
	if err != nil {
		return b.poison(err)
	}
	return nil
}

// writeDict writes one dictionary file: header + (u32 length, bytes) per
// entry in first-appearance order.
func (b *Builder) writeDict(name string, dict []string) error {
	var payload []byte
	var scratch [4]byte
	for _, s := range dict {
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(s)))
		payload = append(payload, scratch[:]...)
		payload = append(payload, s...)
	}
	h := header{kind: laneDict, count: uint64(len(dict)), payloadLen: uint64(len(payload)), crc: crc32.ChecksumIEEE(payload)}
	return b.writeSealed(name, h, payload)
}

// writeBitmap writes one null-bitmap file (count = row count).
func (b *Builder) writeBitmap(name string, words []uint64) error {
	payload := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(payload[i*8:], w)
	}
	h := header{kind: laneBitmap, count: uint64(b.rows), payloadLen: uint64(len(payload)), crc: crc32.ChecksumIEEE(payload)}
	return b.writeSealed(name, h, payload)
}

// writeSealed writes a complete small file (header + payload) and syncs it.
func (b *Builder) writeSealed(name string, h header, payload []byte) error {
	f, err := os.Create(filepath.Join(b.dir, name))
	if err != nil {
		return b.poison(err)
	}
	if _, err := f.Write(encodeHeader(h)); err == nil {
		_, err = f.Write(payload)
		if err == nil {
			err = f.Sync()
		}
	} else {
		f.Close()
		return b.poison(err)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return b.poison(err)
	}
	return nil
}

// writeManifest lands the manifest atomically: temp file, fsync, rename,
// directory fsync (best effort — not every filesystem supports it).
func (b *Builder) writeManifest(man manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return b.poison(err)
	}
	tmp := filepath.Join(b.dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return b.poison(err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return b.poison(err)
	}
	if err := os.Rename(tmp, filepath.Join(b.dir, manifestName)); err != nil {
		os.Remove(tmp)
		return b.poison(err)
	}
	if d, err := os.Open(b.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Abort closes and removes everything the builder created. Safe to call at
// any point, including after a failed NewBuilder.
func (b *Builder) Abort() error {
	for a := range b.cols {
		col := &b.cols[a]
		if col.f != nil {
			col.f.Close()
			col.f = nil
		}
		if col.path != "" {
			os.Remove(filepath.Join(b.dir, col.path))
		}
		os.Remove(filepath.Join(b.dir, fmt.Sprintf("col%d.dict", a)))
		os.Remove(filepath.Join(b.dir, fmt.Sprintf("col%d.nulls", a)))
	}
	os.Remove(filepath.Join(b.dir, manifestName+".tmp"))
	os.Remove(filepath.Join(b.dir, manifestName))
	os.Remove(b.dir) // only if now empty
	b.finished = true
	if b.err == nil {
		b.err = fmt.Errorf("colstore: build aborted")
	}
	return nil
}

// Build writes rel into a new store at dir — the in-memory convenience
// wrapper over the streaming builder.
func Build(dir string, rel *dataset.Relation, chunkRows int) error {
	b, err := NewBuilder(dir, rel.Schema, BuilderOptions{ChunkRows: chunkRows})
	if err != nil {
		return err
	}
	if err := b.AppendRelation(rel); err != nil {
		b.Abort()
		return err
	}
	return b.Finish()
}
