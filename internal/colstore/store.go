package colstore

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/telemetry"
)

// OpenOptions tunes OpenWith.
type OpenOptions struct {
	// VerifyChecksums forces a full CRC pass over every lane at open,
	// reading the whole store. Off by default: dictionaries and bitmaps are
	// always verified (they are small and fully decoded anyway), bulk lanes
	// only on demand — see Store.Verify.
	VerifyChecksums bool
	// Telemetry receives colstore.bytes_mapped at open; nil disables.
	Telemetry *telemetry.Registry
}

// Store is an opened, memory-mapped column store. Its ColumnSet aliases the
// mapped lanes: it is valid until Close, and must not be used afterwards.
// A Store is immutable and safe for concurrent readers.
type Store struct {
	dir    string
	schema *dataset.Schema
	rows   int
	cols   *dataset.ColumnSet
	maps   []*mapping
	lanes  []laneRef
}

// laneRef remembers one mapped file for the on-demand checksum pass.
type laneRef struct {
	name    string
	h       header
	payload []byte
}

// OpenWith maps the store at dir read-only, validates every header, decodes
// and checksums dictionaries and null bitmaps, bounds-checks every code lane
// against its dictionary, and adopts the lanes into a ColumnSet. Damaged
// stores return errors wrapping ErrCorrupt (or ErrVersion); nothing in the
// open path panics or allocates proportionally to hostile declared sizes.
func OpenWith(dir string, opts OpenOptions) (st *Store, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("colstore: %s is not a store (no readable manifest): %w", dir, err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if man.Format != manifestFormat {
		return nil, fmt.Errorf("%w: manifest format %q", ErrCorrupt, man.Format)
	}
	if man.Version != formatVersion {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, man.Version, formatVersion)
	}
	if man.Rows < 0 || int64(int(man.Rows)) != man.Rows {
		return nil, fmt.Errorf("%w: manifest declares %d rows", ErrCorrupt, man.Rows)
	}
	rows := int(man.Rows)

	attrs := make([]dataset.Attribute, len(man.Columns))
	for i, mc := range man.Columns {
		kind := dataset.Numeric
		switch mc.Kind {
		case "numeric":
		case "categorical":
			kind = dataset.Categorical
		default:
			return nil, fmt.Errorf("%w: column %q has kind %q", ErrCorrupt, mc.Name, mc.Kind)
		}
		attrs[i] = dataset.Attribute{Name: mc.Name, Kind: kind}
	}
	schema, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	s := &Store{dir: dir, schema: schema, rows: rows}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()

	var mapped int64
	assembled := make([]dataset.AssembledColumn, len(man.Columns))
	for a, mc := range man.Columns {
		var col dataset.AssembledColumn
		if attrs[a].Kind == dataset.Numeric {
			h, payload, err := s.mapLane(mc.Lane, laneF64, uint64(rows))
			if err != nil {
				return nil, err
			}
			col.Floats = f64View(payload, rows)
			mapped += int64(len(payload))
			if opts.VerifyChecksums {
				if err := checkCRC(h, payload, mc.Lane); err != nil {
					return nil, err
				}
			}
		} else {
			h, payload, err := s.mapLane(mc.Lane, laneU32, uint64(rows))
			if err != nil {
				return nil, err
			}
			col.Codes = u32View(payload, rows)
			mapped += int64(len(payload))
			if opts.VerifyChecksums {
				if err := checkCRC(h, payload, mc.Lane); err != nil {
					return nil, err
				}
			}
			if mc.Dict == "" {
				return nil, fmt.Errorf("%w: categorical column %q has no dictionary file", ErrCorrupt, mc.Name)
			}
			dh, dpayload, err := s.mapLane(mc.Dict, laneDict, 0)
			if err != nil {
				return nil, err
			}
			// Dictionaries are small and fully decoded: always checksum.
			if err := checkCRC(dh, dpayload, mc.Dict); err != nil {
				return nil, err
			}
			col.Dict, err = decodeDict(dh, dpayload)
			if err != nil {
				return nil, err
			}
			mapped += int64(len(dpayload))
		}
		if mc.Nulls != "" {
			nh, npayload, err := s.mapLane(mc.Nulls, laneBitmap, uint64(rows))
			if err != nil {
				return nil, err
			}
			if err := checkCRC(nh, npayload, mc.Nulls); err != nil {
				return nil, err
			}
			col.Nulls = u64View(npayload, (rows+63)/64)
			mapped += int64(len(npayload))
		}
		assembled[a] = col
	}
	// AdoptColumnSet validates the representation invariants without writing
	// to the read-only lanes (NullCode ⇔ bitmap bit, codes within the
	// dictionary, clean trailing bitmap bits) — the lane-integrity scan of
	// the open path.
	cs, err := dataset.AdoptColumnSet(schema, rows, assembled)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.cols = cs
	opts.Telemetry.Counter(telemetry.MetricColstoreBytesMapped).Add(mapped)
	return s, nil
}

// mapLane maps one store file and validates its header. wantCount 0 skips
// the element-count check (dictionaries declare their own entry count).
func (s *Store) mapLane(name string, kind uint32, wantCount uint64) (header, []byte, error) {
	if name != filepath.Base(name) || name == "." || name == ".." {
		return header{}, nil, fmt.Errorf("%w: manifest references path %q", ErrCorrupt, name)
	}
	path := filepath.Join(s.dir, name)
	st, err := os.Stat(path)
	if err != nil {
		return header{}, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	m, err := mapFile(path)
	if err != nil {
		return header{}, nil, err
	}
	s.maps = append(s.maps, m)
	h, err := decodeHeader(m.data, st.Size(), kind)
	if err != nil {
		return header{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	if wantCount != 0 || kind != laneDict {
		if h.count != wantCount {
			return header{}, nil, fmt.Errorf("%w: %s holds %d elements, manifest declares %d rows", ErrCorrupt, name, h.count, wantCount)
		}
	}
	payload := m.data[headerSize:]
	s.lanes = append(s.lanes, laneRef{name: name, h: h, payload: payload})
	return h, payload, nil
}

// Schema returns the store schema.
func (s *Store) Schema() *dataset.Schema { return s.schema }

// Rows returns the row count.
func (s *Store) Rows() int { return s.rows }

// Columns returns the ColumnSet over the mapped lanes. It is the direct
// input to predicate filters, discovery (core.DiscoverColumns) and chunked
// scans; valid until Close.
func (s *Store) Columns() *dataset.ColumnSet { return s.cols }

// Verify re-checksums every mapped file against its header — the full-read
// integrity pass OpenWith skips for bulk lanes. ctx cancels between lanes.
func (s *Store) Verify(ctx context.Context) error {
	for _, l := range s.lanes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := checkCRC(l.h, l.payload, l.name); err != nil {
			return err
		}
	}
	return nil
}

// Close unmaps every lane. The ColumnSet returned by Columns (and anything
// still aliasing it) must not be used after Close.
func (s *Store) Close() error {
	var first error
	for _, m := range s.maps {
		if err := m.close(); err != nil && first == nil {
			first = err
		}
	}
	s.maps = nil
	s.lanes = nil
	s.cols = nil
	return first
}

// f64View reinterprets an 8-byte-aligned little-endian payload as a
// []float64 without copying. Mapped payloads start at byte 64 of a
// page-aligned mapping, so they are always aligned; a misaligned heap
// fallback (or a big-endian platform) decodes into a fresh slice instead.
func f64View(b []byte, n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	if littleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// u32View reinterprets a payload as []uint32; see f64View.
func u32View(b []byte, n int) []uint32 {
	if n == 0 {
		return []uint32{}
	}
	if littleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// u64View reinterprets a payload as []uint64; see f64View.
func u64View(b []byte, n int) []uint64 {
	if n == 0 {
		return []uint64{}
	}
	if littleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// littleEndian reports the host byte order, decided once at init.
var littleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()
