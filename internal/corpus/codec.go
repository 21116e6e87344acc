package corpus

// Binary codecs for the two persisted corpus file kinds: segments (the
// append-only record batches) and the manifest (the root that names the
// live segments). Both open with a magic number and a schema version and
// end with a 64-bit FNV-1a checksum over everything before it, and both
// decoders must survive arbitrary bytes: these files cross a trust
// boundary (shared corpus directories), so a hostile or truncated
// payload must produce an error, never a panic or an unbounded
// allocation. Element counts are bounded against the bytes actually
// present before anything is allocated, exactly like the artifact
// decoders in internal/core. Decode errors name neither the package nor
// the file; the caller that read the file prefixes both.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/stats"
)

const (
	// segMagic/manMagic open every segment and manifest file ("CPS1",
	// "CPM1" little-endian).
	segMagic = 0x31535043
	manMagic = 0x314d5043
	// schemaVersion is the corpus wire schema. A bump invalidates every
	// corpus directory written by older code; Open reports the skew
	// instead of guessing at the old layout.
	schemaVersion = 1
	// checksumSeed/checksumPrime are the FNV-1a constants.
	checksumSeed  = 0xcbf29ce484222325
	checksumPrime = 0x100000001b3
)

// checksum is FNV-1a over b. fcache and the shard wire use the
// hardware-accelerated CRC-32C instead, but a corpus is user data rather
// than a cache: changing its trailer would make every existing corpus
// unreadable. FNV-1a's byte-at-a-time speed costs little here, since a
// segment is checksummed once per snapshot build, never once per query.
func checksum(b []byte) uint64 {
	h := uint64(checksumSeed)
	for _, c := range b {
		h ^= uint64(c)
		h *= checksumPrime
	}
	return h
}

// ingestEntry is one ingested run's provenance, shared by every record
// the ingest contributed.
type ingestEntry struct {
	// dataset is the core.DatasetHash of the ingested run — the
	// idempotence-ledger key.
	dataset uint64
	// params is a digest of the analysis-shaping configuration knobs.
	params uint64
	// seed is the run's pipeline seed.
	seed uint64
}

// benchEntry names one benchmark in a segment's string table.
type benchEntry struct {
	id    string // "suite/name", or "" for run-level centroid records
	suite string
}

// record is one phase entry: an interval vector or a cluster centroid,
// with its provenance references and global ingest sequence number.
type record struct {
	benchRef  uint32
	ingestRef uint32
	kind      Kind
	index     uint32
	seq       uint64
}

// segment is one decoded segment file: provenance tables, records, and
// the records' vectors (one matrix row per record, in record order).
type segment struct {
	ingests []ingestEntry
	benches []benchEntry
	recs    []record
	vecs    *stats.Matrix
}

// wire sizes used by the allocation-bomb bounds: the minimum bytes one
// element of each table occupies.
const (
	ingestWireSize = 24 // 3 x u64
	benchWireSize  = 8  // two empty length-prefixed strings
	recordWireSize = 21 // u32 + u32 + u8 + u32 + u64
)

func appendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func appendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

func appendString(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

func decodeU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("truncated u32")
	}
	return binary.LittleEndian.Uint32(buf), buf[4:], nil
}

func decodeU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("truncated u64")
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}

// decodeString consumes a length-prefixed string, bounding the length
// against the bytes present before allocating.
func decodeString(buf []byte) (string, []byte, error) {
	n, rest, err := decodeU32(buf)
	if err != nil {
		return "", nil, err
	}
	if int(n) > len(rest) {
		return "", nil, fmt.Errorf("%d-byte string in %d remaining bytes", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// openPayload verifies the trailer checksum and the magic/version header
// and returns the body between them.
func openPayload(buf []byte, magic uint32, what string) ([]byte, error) {
	if len(buf) < 16 {
		return nil, fmt.Errorf("%s truncated (%d bytes)", what, len(buf))
	}
	body, trailer := buf[:len(buf)-8], buf[len(buf)-8:]
	if got, want := binary.LittleEndian.Uint64(trailer), checksum(body); got != want {
		return nil, fmt.Errorf("%s checksum mismatch", what)
	}
	if got := binary.LittleEndian.Uint32(body); got != magic {
		return nil, fmt.Errorf("%s has magic %08x, want %08x", what, got, magic)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != schemaVersion {
		return nil, fmt.Errorf("%s has schema version %d, this build reads %d", what, v, schemaVersion)
	}
	return body[8:], nil
}

// sealPayload appends the trailer checksum over everything in buf.
func sealPayload(buf []byte) []byte { return appendU64(buf, checksum(buf)) }

// encodeSegment serializes s.
func encodeSegment(s *segment) []byte {
	size := 16 + len(s.ingests)*ingestWireSize + len(s.recs)*recordWireSize + 8*len(s.vecs.Data) + 64
	for _, b := range s.benches {
		size += benchWireSize + len(b.id) + len(b.suite)
	}
	buf := make([]byte, 0, size)
	buf = appendU32(buf, segMagic)
	buf = appendU32(buf, schemaVersion)
	buf = appendU32(buf, uint32(len(s.ingests)))
	for _, in := range s.ingests {
		buf = appendU64(buf, in.dataset)
		buf = appendU64(buf, in.params)
		buf = appendU64(buf, in.seed)
	}
	buf = appendU32(buf, uint32(len(s.benches)))
	for _, b := range s.benches {
		buf = appendString(buf, b.id)
		buf = appendString(buf, b.suite)
	}
	buf = appendU32(buf, uint32(len(s.recs)))
	for _, r := range s.recs {
		buf = appendU32(buf, r.benchRef)
		buf = appendU32(buf, r.ingestRef)
		buf = append(buf, byte(r.kind))
		buf = appendU32(buf, r.index)
		buf = appendU64(buf, r.seq)
	}
	buf = s.vecs.AppendBinary(buf)
	return sealPayload(buf)
}

// decodeSegment parses and validates one segment file. Accepted
// segments are internally consistent: every reference resolves, the
// sequence numbers strictly increase, and the vector matrix matches the
// record count.
func decodeSegment(buf []byte) (*segment, error) {
	body, err := openPayload(buf, segMagic, "segment")
	if err != nil {
		return nil, err
	}
	s := &segment{}
	nIng, body, err := decodeU32(body)
	if err != nil {
		return nil, err
	}
	if int(nIng) > len(body)/ingestWireSize {
		return nil, fmt.Errorf("%d ingest entries in %d bytes", nIng, len(body))
	}
	s.ingests = make([]ingestEntry, nIng)
	for i := range s.ingests {
		in := &s.ingests[i]
		if in.dataset, body, err = decodeU64(body); err != nil {
			return nil, err
		}
		if in.params, body, err = decodeU64(body); err != nil {
			return nil, err
		}
		if in.seed, body, err = decodeU64(body); err != nil {
			return nil, err
		}
	}
	nBench, body, err := decodeU32(body)
	if err != nil {
		return nil, err
	}
	if int(nBench) > len(body)/benchWireSize {
		return nil, fmt.Errorf("%d bench entries in %d bytes", nBench, len(body))
	}
	s.benches = make([]benchEntry, nBench)
	for i := range s.benches {
		b := &s.benches[i]
		if b.id, body, err = decodeString(body); err != nil {
			return nil, err
		}
		if b.suite, body, err = decodeString(body); err != nil {
			return nil, err
		}
	}
	nRec, body, err := decodeU32(body)
	if err != nil {
		return nil, err
	}
	if int(nRec) > len(body)/recordWireSize {
		return nil, fmt.Errorf("%d records in %d bytes", nRec, len(body))
	}
	s.recs = make([]record, nRec)
	for i := range s.recs {
		r := &s.recs[i]
		if r.benchRef, body, err = decodeU32(body); err != nil {
			return nil, err
		}
		if r.ingestRef, body, err = decodeU32(body); err != nil {
			return nil, err
		}
		if len(body) < 1 {
			return nil, fmt.Errorf("truncated record kind")
		}
		r.kind, body = Kind(body[0]), body[1:]
		if r.index, body, err = decodeU32(body); err != nil {
			return nil, err
		}
		if r.seq, body, err = decodeU64(body); err != nil {
			return nil, err
		}
		if r.kind > KindCentroid {
			return nil, fmt.Errorf("record %d has unknown kind %d", i, r.kind)
		}
		if r.benchRef >= nBench || r.ingestRef >= nIng {
			return nil, fmt.Errorf("record %d references bench %d/%d, ingest %d/%d",
				i, r.benchRef, nBench, r.ingestRef, nIng)
		}
		if i > 0 && r.seq <= s.recs[i-1].seq {
			return nil, fmt.Errorf("record sequence not strictly increasing (%d after %d)",
				r.seq, s.recs[i-1].seq)
		}
	}
	if s.vecs, body, err = stats.DecodeMatrix(body); err != nil {
		return nil, err
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after segment", len(body))
	}
	if s.vecs.Rows != int(nRec) {
		return nil, fmt.Errorf("%d records with %d vector rows", nRec, s.vecs.Rows)
	}
	if nRec > 0 && s.vecs.Cols < 1 {
		return nil, fmt.Errorf("records with %d-dimensional vectors", s.vecs.Cols)
	}
	return s, nil
}

// manifest is the corpus root: the live segment list, the next global
// sequence and file numbers, the vector dimensionality, and the sorted
// dataset-hash ledger that makes re-ingesting a run a no-op.
type manifest struct {
	nextSeq  uint64
	nextFile uint64
	dim      uint32
	segments []string
	ledger   []uint64
}

// encodeManifest serializes m.
func encodeManifest(m *manifest) []byte {
	size := 48 + 8*len(m.ledger)
	for _, s := range m.segments {
		size += 4 + len(s)
	}
	buf := make([]byte, 0, size)
	buf = appendU32(buf, manMagic)
	buf = appendU32(buf, schemaVersion)
	buf = appendU64(buf, m.nextSeq)
	buf = appendU64(buf, m.nextFile)
	buf = appendU32(buf, m.dim)
	buf = appendU32(buf, uint32(len(m.segments)))
	for _, s := range m.segments {
		buf = appendString(buf, s)
	}
	buf = appendU32(buf, uint32(len(m.ledger)))
	for _, h := range m.ledger {
		buf = appendU64(buf, h)
	}
	return sealPayload(buf)
}

// decodeManifest parses and validates one manifest. Segment names must
// be plain file names (the sweep and the loader join them onto the
// corpus directory), and the ledger must be strictly increasing — its
// canonical, binary-searchable form.
func decodeManifest(buf []byte) (*manifest, error) {
	body, err := openPayload(buf, manMagic, "manifest")
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if m.nextSeq, body, err = decodeU64(body); err != nil {
		return nil, err
	}
	if m.nextFile, body, err = decodeU64(body); err != nil {
		return nil, err
	}
	if m.dim, body, err = decodeU32(body); err != nil {
		return nil, err
	}
	nSeg, body, err := decodeU32(body)
	if err != nil {
		return nil, err
	}
	if int(nSeg) > len(body)/4 {
		return nil, fmt.Errorf("%d segment names in %d bytes", nSeg, len(body))
	}
	m.segments = make([]string, nSeg)
	for i := range m.segments {
		if m.segments[i], body, err = decodeString(body); err != nil {
			return nil, err
		}
		if !validSegmentName(m.segments[i]) {
			return nil, fmt.Errorf("manifest names invalid segment %q", m.segments[i])
		}
	}
	nLed, body, err := decodeU32(body)
	if err != nil {
		return nil, err
	}
	if int(nLed) > len(body)/8 {
		return nil, fmt.Errorf("%d ledger entries in %d bytes", nLed, len(body))
	}
	m.ledger = make([]uint64, nLed)
	for i := range m.ledger {
		if m.ledger[i], body, err = decodeU64(body); err != nil {
			return nil, err
		}
		if i > 0 && m.ledger[i] <= m.ledger[i-1] {
			return nil, fmt.Errorf("ledger not strictly increasing")
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after manifest", len(body))
	}
	return m, nil
}

// validSegmentName accepts exactly the names newSegmentName mints:
// "seg-" + 16 hex digits + ".seg". Anything else in a manifest —
// path separators in particular — is rejected, because these names are
// joined onto the corpus directory and unlinked by the sweep.
func validSegmentName(name string) bool {
	const pre, suf = "seg-", ".seg"
	if len(name) != len(pre)+16+len(suf) || name[:len(pre)] != pre || name[len(name)-len(suf):] != suf {
		return false
	}
	for i := len(pre); i < len(pre)+16; i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// newSegmentName mints the file name for segment number n.
func newSegmentName(n uint64) string { return fmt.Sprintf("seg-%016x.seg", n) }
