// Package colstore is the out-of-core columnar store: an on-disk,
// memory-mapped lane format that feeds the discovery engine past RAM. A
// store is a directory holding one file per column — little-endian []float64
// lanes for numeric attributes, dict-coded []uint32 lanes plus a dictionary
// file for categorical attributes, and a 1-bit-per-row null bitmap per
// nullable column — described by a versioned JSON manifest written last
// (temp-file + rename), so a crashed build is never mistaken for a store.
//
// Every file opens with the same 64-byte header: magic, format version, lane
// kind, element count, payload length and an IEEE CRC-32 of the payload.
// The payload starts at byte 64 of a page-aligned mapping, so []float64 /
// []uint32 / []uint64 views of the mapped bytes are always aligned.
//
// OpenWith maps each lane read-only and adopts them into a dataset.ColumnSet
// via dataset.AdoptColumnSet — the lanes are written pre-normalized to the
// exact in-memory representation (raw Nums under null bits, NullCode +
// bitmap bit for null categorical cells, first-appearance dictionary order),
// so every downstream consumer (vectorized filters, share scan, Gram
// accumulation) is bitwise-identical to the heap path. Dictionary and
// bitmap payloads are checksummed at open; bulk lanes are checksummed on
// demand (OpenOptions.VerifyChecksums or Store.Verify) so opening a
// multi-gigabyte store stays O(small).
package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// magic opens every lane file.
	magic = "CRRC"
	// formatVersion is the store format version, bumped on layout changes.
	formatVersion = 1
	// headerSize is the fixed header length; payloads start here. 64 keeps
	// every fixed-width payload 8-byte aligned within a page-aligned mapping.
	headerSize = 64
	// manifestName is the store descriptor, written last.
	manifestName = "manifest.json"
	// manifestFormat guards against pointing OpenWith at some other JSON.
	manifestFormat = "crr-colstore"
)

// Lane kinds (header field).
const (
	laneF64    = 1 // []float64 little-endian, count elements
	laneU32    = 2 // []uint32 little-endian, count elements
	laneDict   = 3 // count entries of u32 byte-length + UTF-8 bytes
	laneBitmap = 4 // []uint64 little-endian words, count = row count
)

// ErrCorrupt is wrapped by every open/decode failure caused by the store's
// on-disk state (truncation, bad magic, checksum mismatch, impossible
// declared lengths). Callers distinguish "the store is damaged" from
// in-process misuse with errors.Is.
var ErrCorrupt = errors.New("colstore: corrupt store")

// ErrVersion is wrapped when a store declares a format version this build
// does not read — its own class, distinct from ErrCorrupt, so migration
// tooling can tell "too new" from "damaged".
var ErrVersion = errors.New("colstore: unsupported format version")

// header is the decoded fixed header of one lane file.
type header struct {
	kind       uint32
	count      uint64
	payloadLen uint64
	crc        uint32
}

// encodeHeader renders h into a headerSize buffer.
func encodeHeader(h header) []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], formatVersion)
	binary.LittleEndian.PutUint32(buf[8:12], h.kind)
	// buf[12:16] reserved, zero.
	binary.LittleEndian.PutUint64(buf[16:24], h.count)
	binary.LittleEndian.PutUint64(buf[24:32], h.payloadLen)
	binary.LittleEndian.PutUint32(buf[32:36], h.crc)
	return buf
}

// decodeHeader validates the fixed header of one lane file against the
// actual file size. It never allocates proportionally to declared lengths —
// oversize declarations are rejected against fileSize first.
func decodeHeader(b []byte, fileSize int64, wantKind uint32) (header, error) {
	if len(b) < headerSize {
		return header{}, fmt.Errorf("%w: %d-byte file shorter than the %d-byte header", ErrCorrupt, len(b), headerSize)
	}
	if string(b[0:4]) != magic {
		return header{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[0:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != formatVersion {
		return header{}, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, v, formatVersion)
	}
	h := header{
		kind:       binary.LittleEndian.Uint32(b[8:12]),
		count:      binary.LittleEndian.Uint64(b[16:24]),
		payloadLen: binary.LittleEndian.Uint64(b[24:32]),
		crc:        binary.LittleEndian.Uint32(b[32:36]),
	}
	if h.kind != wantKind {
		return header{}, fmt.Errorf("%w: lane kind %d, want %d", ErrCorrupt, h.kind, wantKind)
	}
	if h.payloadLen != uint64(fileSize)-headerSize {
		return header{}, fmt.Errorf("%w: declared payload %d bytes, file holds %d", ErrCorrupt, h.payloadLen, fileSize-headerSize)
	}
	var elem uint64
	switch h.kind {
	case laneF64, laneBitmap:
		elem = 8
	case laneU32:
		elem = 4
	}
	if elem != 0 {
		// Cap count before any arithmetic so a hostile header cannot
		// overflow the size computation (2^56 rows is far past any real
		// store and keeps count*8 within uint64).
		if h.count > 1<<56 {
			return header{}, fmt.Errorf("%w: header declares %d elements", ErrCorrupt, h.count)
		}
		want := h.count * elem
		if h.kind == laneBitmap {
			want = (h.count + 63) / 64 * 8
		}
		if want != h.payloadLen {
			return header{}, fmt.Errorf("%w: %d elements of kind %d need %d payload bytes, header declares %d", ErrCorrupt, h.count, h.kind, want, h.payloadLen)
		}
	}
	return h, nil
}

// checkCRC verifies payload against the header checksum.
func checkCRC(h header, payload []byte, name string) error {
	if got := crc32.ChecksumIEEE(payload); got != h.crc {
		return fmt.Errorf("%w: %s checksum %08x, header declares %08x", ErrCorrupt, name, got, h.crc)
	}
	return nil
}

// decodeDict parses a dictionary payload: count entries of u32 length +
// bytes. Allocation is capped by the actual payload size (count ≤ len/4 or
// the header was already rejected), so a hostile header cannot force an
// over-allocation.
func decodeDict(h header, payload []byte) ([]string, error) {
	if h.count > uint64(len(payload))/4+1 {
		return nil, fmt.Errorf("%w: dictionary declares %d entries in %d payload bytes", ErrCorrupt, h.count, len(payload))
	}
	dict := make([]string, 0, h.count)
	off := 0
	for i := uint64(0); i < h.count; i++ {
		if len(payload)-off < 4 {
			return nil, fmt.Errorf("%w: dictionary entry %d truncated at byte %d", ErrCorrupt, i, off)
		}
		n := int(binary.LittleEndian.Uint32(payload[off : off+4]))
		off += 4
		if n < 0 || n > len(payload)-off {
			return nil, fmt.Errorf("%w: dictionary entry %d declares %d bytes, %d remain", ErrCorrupt, i, n, len(payload)-off)
		}
		// Copy out of the mapping: dictionary strings outlive chunk scans and
		// must not dangle into an unmapped region after Close.
		dict = append(dict, string(payload[off:off+n]))
		off += n
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: dictionary has %d trailing bytes", ErrCorrupt, len(payload)-off)
	}
	return dict, nil
}

// manifest is the store descriptor.
type manifest struct {
	Format  string           `json:"format"`
	Version int              `json:"version"`
	Rows    int64            `json:"rows"`
	Columns []manifestColumn `json:"columns"`
}

// manifestColumn names one column's files. Nulls is empty when the column
// has no null cell; Dict is set only for categorical columns.
type manifestColumn struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "numeric" | "categorical"
	Lane  string `json:"lane"`
	Dict  string `json:"dict,omitempty"`
	Nulls string `json:"nulls,omitempty"`
}
