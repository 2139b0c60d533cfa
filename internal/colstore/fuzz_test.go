package colstore

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzColstoreOpen feeds hostile bytes into the store open path: the fuzzer
// controls the manifest, a lane file, a dictionary file and a bitmap file.
// OpenWith must either succeed or return an error — it must never panic, and a
// hostile header must never force an allocation proportional to its declared
// (rather than actual) size. Truncation, bad magic, checksum damage and
// oversize declared lengths all funnel through here.
func FuzzColstoreOpen(f *testing.F) {
	// Seed with a well-formed single-column store, then variants the
	// mutator can splice.
	man := []byte(`{"format":"crr-colstore","version":1,"rows":2,"columns":[` +
		`{"name":"x","kind":"numeric","lane":"col0.f64","nulls":"col0.nulls"},` +
		`{"name":"c","kind":"categorical","lane":"col1.codes","dict":"col1.dict"}]}`)
	lane := func(kind uint32, count uint64, payload []byte) []byte {
		h := header{kind: kind, count: count, payloadLen: uint64(len(payload)), crc: crc32.ChecksumIEEE(payload)}
		return append(encodeHeader(h), payload...)
	}
	f64lane := lane(laneF64, 2, []byte{0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0, 64})
	bitmap := lane(laneBitmap, 2, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	codes := lane(laneU32, 2, []byte{0, 0, 0, 0, 1, 0, 0, 0})
	dictPayload := []byte{1, 0, 0, 0, 'a', 1, 0, 0, 0, 'b'}
	dict := lane(laneDict, 2, dictPayload)
	f.Add(man, f64lane, codes, dict, bitmap)
	// Oversize declared dictionary count.
	badDict := make([]byte, len(dict))
	copy(badDict, dict)
	binary.LittleEndian.PutUint64(badDict[16:24], 1<<40)
	f.Add(man, f64lane, codes, badDict, bitmap)
	// Truncations and a bad magic.
	f.Add(man, f64lane[:headerSize-1], codes, dict, bitmap)
	f.Add(man[:20], f64lane, codes, dict, bitmap)
	corrupt := append([]byte("XXXX"), f64lane[4:]...)
	f.Add(man, corrupt, codes, dict, bitmap)

	f.Fuzz(func(t *testing.T, manifest, laneF64File, codesFile, dictFile, bitmapFile []byte) {
		dir := t.TempDir()
		writeIf := func(name string, b []byte) {
			if len(b) > 0 {
				os.WriteFile(filepath.Join(dir, name), b, 0o644)
			}
		}
		writeIf(manifestName, manifest)
		writeIf("col0.f64", laneF64File)
		writeIf("col0.nulls", bitmapFile)
		writeIf("col1.codes", codesFile)
		writeIf("col1.dict", dictFile)
		st, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			return
		}
		// A store that opened must be internally coherent enough to scan.
		cs := st.Columns()
		for a := 0; a < cs.Schema.Len(); a++ {
			for r := 0; r < cs.Len(); r++ {
				cs.IsNull(a, r)
			}
		}
		st.Verify(context.Background())
		st.Close()
	})
}

// FuzzDictDecode drills the dictionary decoder alone: arbitrary payloads
// with arbitrary declared counts must never panic or over-allocate.
func FuzzDictDecode(f *testing.F) {
	f.Add(uint64(2), []byte{1, 0, 0, 0, 'a', 1, 0, 0, 0, 'b'})
	f.Add(uint64(1<<50), []byte{0, 0, 0, 0})
	f.Add(uint64(1), []byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, count uint64, payload []byte) {
		dict, err := decodeDict(header{kind: laneDict, count: count, payloadLen: uint64(len(payload))}, payload)
		if err != nil {
			return
		}
		if uint64(len(dict)) != count {
			t.Fatalf("decoded %d entries, declared %d", len(dict), count)
		}
	})
}

// FuzzHeaderDecode: arbitrary 64-byte headers against arbitrary file sizes.
func FuzzHeaderDecode(f *testing.F) {
	good := encodeHeader(header{kind: laneF64, count: 2, payloadLen: 16, crc: 1})
	f.Add(good, int64(80), uint32(laneF64))
	f.Add(good, int64(16), uint32(laneU32))
	f.Fuzz(func(t *testing.T, raw []byte, fileSize int64, wantKind uint32) {
		h, err := decodeHeader(raw, fileSize, wantKind%5)
		if err != nil {
			return
		}
		if h.payloadLen != uint64(fileSize)-headerSize {
			t.Fatalf("accepted payloadLen %d for fileSize %d", h.payloadLen, fileSize)
		}
	})
}

// sanity: the fuzz seeds themselves round-trip.
func TestFuzzSeedStoreOpens(t *testing.T) {
	dir := t.TempDir()
	lane := func(kind uint32, count uint64, payload []byte) []byte {
		h := header{kind: kind, count: count, payloadLen: uint64(len(payload)), crc: crc32.ChecksumIEEE(payload)}
		return append(encodeHeader(h), payload...)
	}
	files := map[string][]byte{
		manifestName: []byte(`{"format":"crr-colstore","version":1,"rows":2,"columns":[` +
			`{"name":"x","kind":"numeric","lane":"col0.f64","nulls":"col0.nulls"},` +
			`{"name":"c","kind":"categorical","lane":"col1.codes","dict":"col1.dict"}]}`),
		"col0.f64":   lane(laneF64, 2, []byte{0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0, 64}),
		"col0.nulls": lane(laneBitmap, 2, []byte{1, 0, 0, 0, 0, 0, 0, 0}),
		"col1.codes": lane(laneU32, 2, []byte{0, 0, 0, 0, 1, 0, 0, 0}),
		"col1.dict":  lane(laneDict, 2, []byte{1, 0, 0, 0, 'a', 1, 0, 0, 0, 'b'}),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Rows() != 2 || !st.Columns().IsNull(0, 0) || st.Columns().Float(0)[1] != 2 {
		t.Fatalf("seed store decoded wrong: rows %d", st.Rows())
	}
	if got := st.Columns().Dict(1); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("dict %v", got)
	}
}
