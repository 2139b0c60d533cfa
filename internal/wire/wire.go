// Package wire is the binary columnar wire protocol of the serving plane:
// a compact, versioned, length-prefixed column-oriented encoding of tuple
// batches and endpoint results, built so that decoding a request is a
// near-memcpy into the columnar execution core (dataset.ColumnSet) instead
// of a tour through reflection, maps and interface boxing.
//
// What motivated this package: batch classification of 1000 tuples cost
// ~92µs in-process (BenchmarkPredictBatchColumnar in internal/serve) while
// the full JSON /v1/predict round trip cost ~8.5ms and ~56k allocations
// (BenchmarkServeBatchPredict) — serialization was ~99% of serving latency. The format here keeps the wire shape
// isomorphic to the in-memory shape: numeric columns travel as little-endian
// 8-byte float64 lanes, categorical columns as a string dictionary plus
// 4-byte codes, and missing cells as 1-bit-per-row null bitmaps.
//
// # Stream layout (version 1)
//
//	magic    4B  "CRRW"
//	version  1B  0x01
//	msgtype  1B  0x01 batch · 0x02 predictions · 0x03 check · 0x04 impute
//
// A batch message continues with an options section (uvarint pair count,
// then length-prefixed key/value strings), a schema section (uvarint column
// count, then per column a length-prefixed name and a kind byte), and a
// sequence of length-prefixed frames:
//
//	frameLen uint32        // bytes of payload that follow
//	payload:
//	  rows uint32          // 0 = end-of-stream terminator
//	  per column, in schema order:
//	    flags    1B        // bit0: a frame-local null bitmap follows the data
//	    float64: rows × 8B little-endian lanes
//	    string:  uvarint dictAdd, dictAdd × length-prefixed strings,
//	             then rows × 4B little-endian codes (NullCode = null)
//	    bitmap:  ceil(rows/64) × 8B little-endian words, LSB-first
//
// Large batches stream as several frames — each frame carries a row chunk
// and string dictionaries grow incrementally (codes always index the
// dictionary accumulated so far), so an encoder never needs the whole batch
// in one contiguous buffer and a reader can bound per-frame memory. The
// explicit zero-row terminator distinguishes a complete stream from a
// truncated one.
//
// Decoding is defensive by construction: every length is validated against
// the bytes actually present before any allocation sized from it, frames
// are capped (DecodeLimits), codes are checked against the dictionary, and
// null numeric lanes are normalized to zero — exactly the representation
// dataset.Null() carries — so binary decoding is bitwise-identical to the
// JSON path. FuzzWireDecode holds the no-panic/no-overallocation line.
package wire

import (
	"bufio"
	"sync"
)

// ContentType is the negotiated media type of this encoding on the HTTP
// surface (Content-Type for request bodies, Accept for responses).
const ContentType = "application/x-crr-columnar"

// Version is the wire format version this package reads and writes.
const Version = 1

// magic opens every message.
var magic = [4]byte{'C', 'R', 'R', 'W'}

// Message types.
const (
	msgBatch       = 0x01
	msgPredictions = 0x02
	msgCheck       = 0x03
	msgImpute      = 0x04
)

// NullCode marks a null cell in a categorical code column, mirroring
// dataset.NullCode. It is never a valid dictionary index.
const NullCode = ^uint32(0)

// Kind is the wire type of a column.
type Kind uint8

const (
	// Float64 columns carry 8-byte little-endian lanes.
	Float64 Kind = 0
	// String columns carry dictionary codes plus a string table.
	String Kind = 1
)

// Schema names and types the columns of a batch, in wire order.
type Schema struct {
	Names []string
	Kinds []Kind
}

// Cols returns the number of columns.
func (s Schema) Cols() int { return len(s.Names) }

// Col is one column of a batch: exactly one of Floats or Codes is set,
// matching the schema kind. Nulls, when non-nil, is a 1-bit-per-row bitmap
// (LSB-first within each uint64 word) over the whole batch.
type Col struct {
	Floats []float64
	Codes  []uint32
	Dict   []string
	Nulls  []uint64
}

// IsNull reports whether row r of the column is null.
func (c *Col) IsNull(r int) bool {
	return c.Nulls != nil && c.Nulls[r>>6]&(1<<(uint(r)&63)) != 0
}

// Batch is a decoded (or to-be-encoded) columnar tuple batch plus the
// per-request options that rode in the stream header (impute column,
// fallback flag — the fields the JSON envelope carries next to "tuples").
type Batch struct {
	Schema  Schema
	Rows    int
	Cols    []Col
	Options map[string]string
}

// Option keys carried in the batch header. Values are strings; boolean
// options use "1".
const (
	// OptColumn names the imputation target column.
	OptColumn = "column"
	// OptFallback requests training-mean fills for uncovered tuples.
	OptFallback = "use_fallback"
)

// DefaultChunkRows is the frame row chunk encoders use when the caller does
// not choose one: large enough to amortize framing, small enough that a
// streaming writer holds ~a few hundred KiB per frame.
const DefaultChunkRows = 8192

// EncodeOptions parameterizes EncodeBatch.
type EncodeOptions struct {
	// ChunkRows bounds rows per frame; 0 means DefaultChunkRows.
	ChunkRows int
}

// DecodeLimits bounds decoder allocations. The zero value of each field is
// replaced by the documented default; the defaults comfortably cover the
// serving configuration (32 MiB request bodies).
type DecodeLimits struct {
	// MaxFrameBytes caps one frame payload. Default 64 MiB.
	MaxFrameBytes int
	// MaxCols caps schema width. Default 4096.
	MaxCols int
	// MaxRows caps total rows across frames. Default 1<<24.
	MaxRows int
}

func (l DecodeLimits) maxFrameBytes() int {
	if l.MaxFrameBytes <= 0 {
		return 64 << 20
	}
	return l.MaxFrameBytes
}

func (l DecodeLimits) maxCols() int {
	if l.MaxCols <= 0 {
		return 4096
	}
	return l.MaxCols
}

func (l DecodeLimits) maxRows() int {
	if l.MaxRows <= 0 {
		return 1 << 24
	}
	return l.MaxRows
}

// maxPooledBuf bounds the scratch buffers kept in the pool; one-off giant
// frames are allocated and dropped instead of pinned forever.
const maxPooledBuf = 4 << 20

// bufPool recycles frame scratch buffers across encodes/decodes — the
// sync.Pool behind the "pool frame buffers" serving contract.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readerPool recycles the bufio readers decode wraps request bodies in.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}

func getReader(rd interface{ Read([]byte) (int, error) }) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(rd)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// bitmapWords returns the uint64 word count of an n-row bitmap.
func bitmapWords(n int) int { return (n + 63) / 64 }
