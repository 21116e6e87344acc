// Package corpus is the persistent cross-run phase database: every
// characterization run's interval vectors and cluster centroids, with
// full provenance, accumulated in one directory and queryable online.
// It turns the paper's batch uniqueness analysis into a standing
// question — "how similar is this workload to everything measured so
// far?" — answered in milliseconds against the whole history.
//
// On disk a corpus is a manifest plus append-only segments, written in
// the fcache idiom: every file is schema-versioned and trailer-
// checksummed, every write goes to a temp name and becomes visible by
// atomic rename, and a crash between the two leaves an unreferenced
// file that the next Open sweeps. Ingest appends one segment and swaps
// the manifest; Compact merges the live segments into one and swaps the
// manifest; at every instant the manifest on disk names a complete,
// consistent corpus. Re-ingesting a run is a no-op: the manifest
// carries a sorted ledger of dataset hashes (core.DatasetHash — the
// same fingerprint the artifact cache keys on).
//
// Queries are served by an in-memory index rebuilt from the segments
// whenever the manifest changes; see index.go. A query answers for the
// manifest it read: it re-reads the manifest and takes that manifest's
// immutable snapshot (the manifest and its index) under the corpus
// lock, then scans the snapshot without the lock, so queries run
// concurrently with each other and with ingest and compaction, and one
// in flight when a mutation lands finishes on the snapshot it took. One
// process must own writes to a corpus directory at a time (the service
// serializes its own ingests; concurrent CLI writers are not
// coordinated), but readers are always safe: they only ever see a fully
// written manifest.
package corpus

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Kind classifies a corpus record.
type Kind uint8

const (
	// KindInterval is one sampled interval's 69-characteristic vector.
	KindInterval Kind = iota
	// KindCentroid is one run-level cluster centroid, averaged in the
	// raw characteristic space over the cluster's member intervals.
	KindCentroid
)

// String names the kind in query output.
func (k Kind) String() string {
	if k == KindCentroid {
		return "centroid"
	}
	return "interval"
}

// manifestName is the corpus root file, swapped atomically on every
// mutation.
const manifestName = "MANIFEST"

// sweepAge is how old an unreferenced segment or temp file must be
// before Open removes it: young strays may belong to a writer that is
// mid-swap right now. Tests shrink it to exercise the sweep.
var sweepAge = time.Hour

// Entry is one record offered for ingest.
type Entry struct {
	// Bench is the "suite/name" benchmark ID ("" for run-level
	// centroids, which aggregate across benchmarks).
	Bench string
	// Suite is the benchmark's suite ("" for centroids).
	Suite string
	// Kind classifies the vector.
	Kind Kind
	// Index is the interval's position in its benchmark (KindInterval)
	// or the cluster number (KindCentroid).
	Index int
	// Vector is the raw characteristic vector. Every entry of a batch
	// (and every batch of a corpus) must share one dimensionality.
	Vector []float64
}

// Batch is one run's worth of entries with shared provenance.
type Batch struct {
	// Dataset is the run's core.DatasetHash — the idempotence key. A
	// batch whose hash is already in the ledger is skipped whole.
	Dataset uint64
	// Params digests the analysis-shaping configuration.
	Params uint64
	// Seed is the run's pipeline seed.
	Seed uint64
	// Entries are the records, in a deterministic run-derived order
	// (they receive consecutive global sequence numbers).
	Entries []Entry
}

// IngestInfo reports one IngestBatch outcome.
type IngestInfo struct {
	// Skipped means the batch's dataset hash was already in the ledger
	// and nothing was written.
	Skipped bool
	// Records is how many records were appended (0 when skipped).
	Records int
	// Intervals/Centroids split Records by kind.
	Intervals int
	Centroids int
	// Segment is the file name of the appended segment ("" when skipped).
	Segment string
	// Dataset echoes the batch's ledger key.
	Dataset uint64
}

// CompactInfo reports one Compact outcome.
type CompactInfo struct {
	// Before/After are the live segment counts around the compaction.
	Before, After int
	// Records is the record count of the compacted corpus.
	Records int
}

// Stats is the corpus summary served by the "stats" query.
type Stats struct {
	Records   int    `json:"records"`
	Intervals int    `json:"intervals"`
	Centroids int    `json:"centroids"`
	Benches   int    `json:"benchmarks"`
	Suites    int    `json:"suites"`
	Segments  int    `json:"segments"`
	Ingests   int    `json:"ingests"`
	Dim       int    `json:"dim"`
	NextSeq   uint64 `json:"next_seq"`
}

// Corpus is an open phase database. It is safe for concurrent use
// within one process; see the package comment for the cross-process
// single-writer rule. mu guards the manifest and the current snapshot
// pointer, never a scan: a query holds it only to re-read the manifest
// and take (building, if the manifest changed) the snapshot it then
// answers from.
type Corpus struct {
	dir string

	mu   sync.Mutex
	man  *manifest
	snap *snapshot // man's snapshot, built by the first query after man changed
	segN int       // last segment count reported to the segments counter

	lockWait    *obs.Histogram // every wait for mu
	queryTime   *obs.Histogram
	ingested    *obs.Counter
	skipped     *obs.Counter
	segments    *obs.Counter
	queries     *obs.Counter
	scanRows    *obs.Counter
	compactions *obs.Counter

	// fail, when non-nil, is consulted at named crash points inside
	// ingest and compaction (in the shardnet.Faults spirit: a scripted
	// fault schedule, injected by tests, that never exists in
	// production). Returning an error aborts the operation exactly
	// there, leaving the disk as a kill at that instant would.
	fail func(point string) error
}

// Open opens (creating if necessary) the corpus directory. m may be
// nil. Open validates the manifest, sweeps stale temp files and
// unreferenced segments older than an hour, and reports — rather than
// repairs — a corrupt or version-skewed manifest: a phase database is
// authoritative state, not a cache that may be silently dropped.
func Open(dir string, m *obs.Metrics) (*Corpus, error) {
	if dir == "" {
		return nil, fmt.Errorf("corpus: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	c := &Corpus{
		dir:         dir,
		lockWait:    m.Histogram("corpus.lock_wait"),
		queryTime:   m.Histogram("corpus.query"),
		ingested:    m.Counter("corpus.ingested"),
		skipped:     m.Counter("corpus.ingest_skipped"),
		segments:    m.Counter("corpus.segments"),
		queries:     m.Counter("corpus.queries"),
		scanRows:    m.Counter("corpus.scan_rows"),
		compactions: m.Counter("corpus.compactions"),
	}
	c.lock()
	defer c.mu.Unlock()
	if err := c.reloadLocked(); err != nil {
		return nil, err
	}
	c.sweepLocked()
	return c, nil
}

// Dir returns the corpus directory.
func (c *Corpus) Dir() string { return c.dir }

// lock acquires c.mu, recording the wait on corpus.lock_wait.
func (c *Corpus) lock() {
	t0 := time.Now()
	c.mu.Lock()
	c.lockWait.Observe(time.Since(t0))
}

// snapshot is one manifest's query image: the manifest, and the index
// built from its segments or the error that build returned. It never
// changes once published, so a query reads it without c.mu; mutations
// publish a new manifest and drop the snapshot instead.
type snapshot struct {
	man *manifest
	ix  *index
	err error
}

// snapshotLocked re-reads the manifest and returns its snapshot,
// building the index when the manifest changed since the last build.
// The segment reads stay under c.mu, because an in-process Compact
// unlinks the segments it replaced while holding it. A failed build is
// kept like a successful one, so a corpus that cannot be indexed (a
// corrupt segment, an overflowing column) answers each query with the
// error instead of re-reading every segment; only a failure to read a
// file is not kept, since it may be transient (a descriptor limit,
// say) and says nothing about the manifest. Caller holds c.mu.
func (c *Corpus) snapshotLocked() (*snapshot, error) {
	if err := c.reloadLocked(); err != nil {
		return nil, err
	}
	if c.snap != nil {
		return c.snap, c.snap.err
	}
	s := &snapshot{man: c.man}
	segs, err := c.loadSegmentsLocked()
	var pathErr *fs.PathError
	if errors.As(err, &pathErr) {
		return nil, err
	}
	if err == nil {
		s.ix, err = buildIndex(segs, int(c.man.dim))
	}
	s.err = err
	c.snap = s
	return s, err
}

// reloadLocked (re)reads the manifest from disk, dropping the snapshot
// when the on-disk state moved past the in-memory one. A missing
// manifest is an empty corpus.
func (c *Corpus) reloadLocked() error {
	buf, err := os.ReadFile(filepath.Join(c.dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		if c.man == nil {
			c.man = &manifest{}
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	man, err := decodeManifest(buf)
	if err != nil {
		return fmt.Errorf("corpus: %s: %w", manifestName, err)
	}
	if c.man == nil || c.man.nextFile != man.nextFile || c.man.nextSeq != man.nextSeq {
		c.snap = nil
	}
	c.man = man
	c.segments.Add(int64(len(man.segments) - c.segN))
	c.segN = len(man.segments)
	return nil
}

// sweepLocked removes leftovers no live manifest references: temp files
// from interrupted writes and segments whose manifest swap never
// happened (or that a compaction replaced but could not unlink). The
// age gate keeps it from racing a writer that is mid-swap.
func (c *Corpus) sweepLocked() {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	live := make(map[string]bool, len(c.man.segments))
	for _, s := range c.man.segments {
		live[s] = true
	}
	cutoff := time.Now().Add(-sweepAge)
	for _, e := range entries {
		name := e.Name()
		stray := sweepCandidate(name) && !live[name]
		if !stray {
			continue
		}
		if info, err := e.Info(); err != nil || info.ModTime().After(cutoff) {
			continue
		}
		os.Remove(filepath.Join(c.dir, name))
	}
}

// sweepCandidate reports whether name is a corpus-owned transient: a
// temp file or a segment. Only these are sweep candidates — foreign
// files in the directory are never touched.
func sweepCandidate(name string) bool {
	return validSegmentName(name) || (len(name) > 5 && name[:5] == ".tmp-")
}

// writeFileAtomic writes data as name via a temp file and rename, the
// only mutation primitive the store uses: a reader never observes a
// partial file, and a crash leaves only a swept-later temp.
func (c *Corpus) writeFileAtomic(name string, data []byte) error {
	f, err := os.CreateTemp(c.dir, ".tmp-"+name+"-*")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// failAt consults the injected fault schedule.
func (c *Corpus) failAt(point string) error {
	if c.fail == nil {
		return nil
	}
	return c.fail(point)
}

// ledgerHas binary-searches the sorted dataset-hash ledger.
func ledgerHas(ledger []uint64, h uint64) bool {
	i := sort.Search(len(ledger), func(i int) bool { return ledger[i] >= h })
	return i < len(ledger) && ledger[i] == h
}

// ledgerInsert returns a new sorted ledger including h.
func ledgerInsert(ledger []uint64, h uint64) []uint64 {
	i := sort.Search(len(ledger), func(i int) bool { return ledger[i] >= h })
	out := make([]uint64, 0, len(ledger)+1)
	out = append(out, ledger[:i]...)
	out = append(out, h)
	return append(out, ledger[i:]...)
}

// IngestBatch appends one run's records as a new segment and swaps the
// manifest. A batch whose dataset hash is already in the ledger is
// skipped whole — re-running an identical characterization never
// duplicates corpus rows, however many times it is ingested.
func (c *Corpus) IngestBatch(b Batch) (IngestInfo, error) {
	if b.Dataset == 0 {
		return IngestInfo{}, fmt.Errorf("corpus: batch has no dataset hash")
	}
	if len(b.Entries) == 0 {
		return IngestInfo{}, fmt.Errorf("corpus: empty batch")
	}
	dim := len(b.Entries[0].Vector)
	if dim == 0 {
		return IngestInfo{}, fmt.Errorf("corpus: zero-dimensional vectors")
	}
	for i := range b.Entries {
		if len(b.Entries[i].Vector) != dim {
			return IngestInfo{}, fmt.Errorf("corpus: entry %d has dim %d, batch has %d", i, len(b.Entries[i].Vector), dim)
		}
		if b.Entries[i].Kind > KindCentroid {
			return IngestInfo{}, fmt.Errorf("corpus: entry %d has unknown kind %d", i, b.Entries[i].Kind)
		}
		// One NaN or infinity would poison its column's corpus-wide
		// normalization, and with it every distance.
		if !finite(b.Entries[i].Vector) {
			return IngestInfo{}, fmt.Errorf("corpus: entry %d has a non-finite value", i)
		}
	}

	c.lock()
	defer c.mu.Unlock()
	// Re-read the manifest first: another process may have advanced the
	// corpus since we loaded it, and appending from a stale root would
	// reuse sequence numbers.
	if err := c.reloadLocked(); err != nil {
		return IngestInfo{}, err
	}
	if c.man.dim != 0 && int(c.man.dim) != dim {
		return IngestInfo{}, fmt.Errorf("corpus: batch has %d-dimensional vectors, corpus holds %d", dim, c.man.dim)
	}
	if ledgerHas(c.man.ledger, b.Dataset) {
		c.skipped.Inc()
		return IngestInfo{Skipped: true, Dataset: b.Dataset}, nil
	}

	seg := buildSegment(b, c.man.nextSeq)
	name := newSegmentName(c.man.nextFile)
	if err := c.writeFileAtomic(name, encodeSegment(seg)); err != nil {
		return IngestInfo{}, err
	}
	// Crash point: the segment exists but no manifest references it.
	// Reopening sees the pre-ingest corpus; the orphan is swept later.
	if err := c.failAt("ingest.segment-written"); err != nil {
		return IngestInfo{}, err
	}
	man := &manifest{
		nextSeq:  c.man.nextSeq + uint64(len(b.Entries)),
		nextFile: c.man.nextFile + 1,
		dim:      uint32(dim),
		segments: append(append([]string{}, c.man.segments...), name),
		ledger:   ledgerInsert(c.man.ledger, b.Dataset),
	}
	if err := c.writeFileAtomic(manifestName, encodeManifest(man)); err != nil {
		return IngestInfo{}, err
	}
	c.man, c.snap = man, nil
	c.ingested.Add(int64(len(b.Entries)))
	c.segments.Add(int64(len(man.segments) - c.segN))
	c.segN = len(man.segments)

	info := IngestInfo{Records: len(b.Entries), Segment: name, Dataset: b.Dataset}
	for i := range b.Entries {
		if b.Entries[i].Kind == KindCentroid {
			info.Centroids++
		} else {
			info.Intervals++
		}
	}
	return info, nil
}

// buildSegment assembles b into a segment whose records start at
// sequence number baseSeq, deduplicating the bench and ingest tables.
func buildSegment(b Batch, baseSeq uint64) *segment {
	seg := &segment{
		ingests: []ingestEntry{{dataset: b.Dataset, params: b.Params, seed: b.Seed}},
		recs:    make([]record, len(b.Entries)),
		vecs:    stats.NewMatrix(len(b.Entries), len(b.Entries[0].Vector)),
	}
	benchRef := make(map[benchEntry]uint32)
	for i := range b.Entries {
		e := &b.Entries[i]
		key := benchEntry{id: e.Bench, suite: e.Suite}
		ref, ok := benchRef[key]
		if !ok {
			ref = uint32(len(seg.benches))
			seg.benches = append(seg.benches, key)
			benchRef[key] = ref
		}
		seg.recs[i] = record{
			benchRef: ref, ingestRef: 0,
			kind: e.Kind, index: uint32(e.Index), seq: baseSeq + uint64(i),
		}
		copy(seg.vecs.Row(i), e.Vector)
	}
	return seg
}

// loadSegmentsLocked reads and decodes every live segment.
func (c *Corpus) loadSegmentsLocked() ([]*segment, error) {
	segs := make([]*segment, 0, len(c.man.segments))
	for _, name := range c.man.segments {
		buf, err := os.ReadFile(filepath.Join(c.dir, name))
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		s, err := decodeSegment(buf)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", name, err)
		}
		segs = append(segs, s)
	}
	return segs, nil
}

// Compact merges the live segments into one and swaps the manifest.
// The record set, its sequence numbers and the ledger are unchanged —
// every query answers byte-identically before and after — only the file
// layout collapses. The replaced segments are unlinked afterwards; if
// that is interrupted they are unreferenced and swept by a later Open.
func (c *Corpus) Compact() (CompactInfo, error) {
	c.lock()
	defer c.mu.Unlock()
	if err := c.reloadLocked(); err != nil {
		return CompactInfo{}, err
	}
	records := 0
	segs, err := c.loadSegmentsLocked()
	if err != nil {
		return CompactInfo{}, err
	}
	for _, s := range segs {
		records += len(s.recs)
	}
	info := CompactInfo{Before: len(c.man.segments), After: len(c.man.segments), Records: records}
	if len(c.man.segments) <= 1 {
		return info, nil
	}

	merged := mergeSegments(segs)
	name := newSegmentName(c.man.nextFile)
	if err := c.writeFileAtomic(name, encodeSegment(merged)); err != nil {
		return CompactInfo{}, err
	}
	// Crash point: old and new segments coexist; the manifest still
	// names the old set, so nothing is lost and the new file is swept.
	if err := c.failAt("compact.segment-written"); err != nil {
		return CompactInfo{}, err
	}
	man := &manifest{
		nextSeq:  c.man.nextSeq,
		nextFile: c.man.nextFile + 1,
		dim:      c.man.dim,
		segments: []string{name},
		ledger:   c.man.ledger,
	}
	if err := c.writeFileAtomic(manifestName, encodeManifest(man)); err != nil {
		return CompactInfo{}, err
	}
	old := c.man.segments
	c.man, c.snap = man, nil
	c.compactions.Inc()
	c.segments.Add(int64(len(man.segments) - c.segN))
	c.segN = len(man.segments)
	// Crash point: the swap is durable; only the unlink of the replaced
	// segments remains, and the sweep covers an interruption here.
	if err := c.failAt("compact.manifest-swapped"); err != nil {
		info.After = 1
		return info, err
	}
	for _, s := range old {
		os.Remove(filepath.Join(c.dir, s))
	}
	info.After = 1
	return info, nil
}

// mergeSegments concatenates segments into one, rebuilding the shared
// tables and keeping records in global sequence order. Live segments
// hold disjoint ascending sequence ranges in manifest order, so the
// stable sort is a formality that also defends against a manifest
// listing segments out of ingest order.
func mergeSegments(segs []*segment) *segment {
	total, dim := 0, 0
	for _, s := range segs {
		total += len(s.recs)
		if s.vecs.Cols > dim {
			dim = s.vecs.Cols
		}
	}
	type row struct {
		rec record
		vec []float64
	}
	rows := make([]row, 0, total)
	out := &segment{vecs: stats.NewMatrix(total, dim)}
	ingestRef := make(map[ingestEntry]uint32)
	benchRef := make(map[benchEntry]uint32)
	for _, s := range segs {
		for i := range s.recs {
			r := s.recs[i]
			ing := s.ingests[r.ingestRef]
			iRef, ok := ingestRef[ing]
			if !ok {
				iRef = uint32(len(out.ingests))
				out.ingests = append(out.ingests, ing)
				ingestRef[ing] = iRef
			}
			b := s.benches[r.benchRef]
			bRef, ok := benchRef[b]
			if !ok {
				bRef = uint32(len(out.benches))
				out.benches = append(out.benches, b)
				benchRef[b] = bRef
			}
			r.ingestRef, r.benchRef = iRef, bRef
			rows = append(rows, row{rec: r, vec: s.vecs.Row(i)})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].rec.seq < rows[j].rec.seq })
	out.recs = make([]record, total)
	for i := range rows {
		out.recs[i] = rows[i].rec
		copy(out.vecs.Row(i), rows[i].vec)
	}
	return out
}

// Stats summarizes the corpus as of the manifest on disk.
func (c *Corpus) Stats() (Stats, error) {
	c.lock()
	s, err := c.snapshotLocked()
	c.mu.Unlock()
	if err != nil {
		return Stats{}, err
	}
	return s.stats(), nil
}

// stats summarizes the snapshot.
func (s *snapshot) stats() Stats {
	st := Stats{
		Records:  len(s.ix.entries),
		Benches:  len(s.ix.byBench),
		Suites:   len(s.ix.bySuite),
		Segments: len(s.man.segments),
		Ingests:  len(s.man.ledger),
		Dim:      int(s.man.dim),
		NextSeq:  s.man.nextSeq,
	}
	for i := range s.ix.entries {
		if s.ix.entries[i].kind == KindCentroid {
			st.Centroids++
		} else {
			st.Intervals++
		}
	}
	return st
}
