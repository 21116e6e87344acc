package core

// Stage artifacts: the serializable outputs of the pipeline engine's
// stages, their binary codecs, and the content-addressed cache keys that
// name them.
//
// Every key is a chain: a stage's key hash folds its own parameters into
// the hash of the stage it consumes, so the key of (say) the clustering
// artifact changes whenever anything upstream — a benchmark behaviour, a
// sampling parameter, the PC retention threshold, the k-means seed —
// changes. Worker counts are deliberately excluded everywhere: every
// stage is worker-count deterministic, so the same key must be produced
// (and reused) at any parallelism.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/fcache"
	"repro/internal/mica"
	"repro/internal/stats"
	"repro/internal/trace"
)

// engineSchemaVersion versions the stage decomposition and the artifact
// encodings. Bump it whenever a stage's output format or semantics
// change, so stale artifacts miss instead of decoding into garbage.
// v2: shard artifacts carry their producing artifactVersion in the
// payload itself, so a shard produced under a different schema is
// rejected by the decoder even when it arrives outside the keyed cache
// (e.g. over the shardnet wire).
// v3: analysis kernels moved to internal/kernel's blocked reductions
// (fixed four-lane and serial-column orders), which reorders
// floating-point sums in k-means, PCA projection and distance
// computations; matrices encode with the self-aligning padded layout.
// Values derived under v2 are numerically equivalent but not bit-equal,
// so they must miss.
const engineSchemaVersion = 3

// artifactVersion combines the measurement-kernel schema with the engine
// schema: a change to either invalidates every stage artifact.
func artifactVersion() uint32 {
	return uint32(mica.SchemaVersion)<<8 | engineSchemaVersion
}

// foldHash mixes v into the running hash h (order-sensitive).
func foldHash(h, v uint64) uint64 {
	return trace.Hash64(h*0x100000001b3 ^ v)
}

// foldF64 mixes a float64 into the hash by its IEEE-754 bits.
func foldF64(h uint64, v float64) uint64 {
	return foldHash(h, math.Float64bits(v))
}

// benchHash identifies one benchmark's full characterization input: its
// ID, interval count, and every interval's behaviour hash and generator
// seed. Two benchmarks with equal hashes produce identical interval
// vectors at the same interval length.
func benchHash(b *bench.Benchmark, total int) uint64 {
	h := foldHash(0x9e3779b97f4a7c15, trace.HashString(b.ID()))
	h = foldHash(h, uint64(total))
	for i := 0; i < total; i++ {
		h = foldHash(h, b.BehaviorHashAt(i, total))
		h = foldHash(h, b.IntervalSeed(i))
	}
	return h
}

// artifactKeys precomputes the key-hash chain for one (registry, config)
// pair. Built once per engine, only when a cache is configured.
type artifactKeys struct {
	// params folds every sampling parameter that shapes the dataset.
	params uint64
	// bench[i] is the benchHash of registry benchmark i.
	bench []uint64
	// dataset folds params with every benchmark hash: the identity of the
	// full characterized dataset.
	dataset uint64
	// rows is the sampled dataset's row count.
	rows int
	seed uint64
}

func newArtifactKeys(reg *bench.Registry, cfg Config, rows int) *artifactKeys {
	k := &artifactKeys{rows: rows, seed: uint64(cfg.Seed)}
	h := uint64(0xa0761d6478bd642f)
	h = foldHash(h, uint64(cfg.IntervalLength))
	h = foldHash(h, uint64(cfg.SamplesPerBenchmark))
	h = foldHash(h, uint64(cfg.MaxIntervalsPerBenchmark))
	var sampled uint64
	if cfg.SampleByBenchmark {
		sampled = 1
	}
	h = foldHash(h, sampled)
	h = foldHash(h, uint64(cfg.Seed))
	k.params = h

	k.bench = make([]uint64, reg.Len())
	d := k.params
	for i, b := range reg.All() {
		k.bench[i] = benchHash(b, b.ScaledIntervals(cfg.MaxIntervalsPerBenchmark))
		d = foldHash(d, k.bench[i])
	}
	k.dataset = d
	return k
}

// datasetKey names Characterize's whole-dataset artifact. It folds
// exactly what VectorKey covers per interval — the behavior content hash
// and interval seed — for every ref in order, plus the interval length,
// so any change that could alter a single dataset bit changes the key.
// Its zero seed keeps it disjoint from the engine's dataset keys, whose
// seed word is 1.
func datasetKey(refs []IntervalRef, cfg Config) fcache.Key {
	h := uint64(0x9e3779b97f4a7c15)
	for _, r := range refs {
		h = foldHash(h, r.Bench.BehaviorHashAt(r.Index, r.Total))
		h = foldHash(h, r.Bench.IntervalSeed(r.Index))
	}
	return fcache.Key{
		Kind:     fcache.KindShard,
		Version:  artifactVersion(),
		Behavior: foldHash(h, uint64(len(refs))),
		Length:   int64(cfg.IntervalLength),
	}
}

// characterizeKey names the engine's characterized dataset: dataset is
// the parameter fold extended by each roster benchmark's hash in
// registry order, rows the sampled row count. Its seed word is 1, as in
// every cache written so far, so their dataset artifacts and baseline
// manifests keep resolving.
func characterizeKey(dataset uint64, rows int) fcache.Key {
	return fcache.Key{
		Kind:     fcache.KindShard,
		Version:  artifactVersion(),
		Behavior: dataset,
		Seed:     1,
		Length:   int64(rows),
	}
}

// pcaHash is the chain value for the fitted PCA model: it depends only on
// the dataset (the model ignores retention thresholds).
func (k *artifactKeys) pcaHash() uint64 {
	return foldHash(k.dataset, uint64(k.rows))
}

func (k *artifactKeys) pcaKey() fcache.Key {
	return fcache.Key{
		Kind:     fcache.KindPCA,
		Version:  artifactVersion(),
		Behavior: k.pcaHash(),
		Seed:     k.seed,
		Length:   int64(k.rows),
	}
}

// scoresHash extends the PCA chain with the retention threshold that
// selects how many components the score matrix keeps.
func (k *artifactKeys) scoresHash(cfg Config) uint64 {
	return foldF64(k.pcaHash(), cfg.MinPCStd)
}

func (k *artifactKeys) scoresKey(cfg Config) fcache.Key {
	return fcache.Key{
		Kind:     fcache.KindScores,
		Version:  artifactVersion(),
		Behavior: k.scoresHash(cfg),
		Seed:     k.seed,
		Length:   int64(k.rows),
	}
}

// clusterHash extends the scores chain with every clustering parameter.
func (k *artifactKeys) clusterHash(cfg Config) uint64 {
	h := foldHash(k.scoresHash(cfg), uint64(cfg.NumClusters))
	h = foldHash(h, uint64(cfg.KMeans.Seed))
	h = foldHash(h, uint64(cfg.KMeans.Restarts))
	h = foldHash(h, uint64(cfg.KMeans.MaxIters))
	return h
}

func (k *artifactKeys) clusterKey(cfg Config) fcache.Key {
	return fcache.Key{
		Kind:     fcache.KindCluster,
		Version:  artifactVersion(),
		Behavior: k.clusterHash(cfg),
		Seed:     k.seed,
		Length:   int64(k.rows),
	}
}

func (k *artifactKeys) summaryKey(cfg Config) fcache.Key {
	return fcache.Key{
		Kind:     fcache.KindSummary,
		Version:  artifactVersion(),
		Behavior: foldHash(k.clusterHash(cfg), uint64(cfg.NumProminent)),
		Seed:     k.seed,
		Length:   int64(k.rows),
	}
}

// timelineKey names one benchmark's phase-timeline artifact (the
// per-benchmark SimPoint-style analysis of AnalyzeTimeline).
func timelineKey(b *bench.Benchmark, cfg Config, maxPhases, total int) fcache.Key {
	h := foldHash(0xe7037ed1a0b428db, benchHash(b, total))
	h = foldHash(h, uint64(cfg.IntervalLength))
	h = foldHash(h, uint64(maxPhases))
	h = foldF64(h, cfg.MinPCStd)
	h = foldHash(h, uint64(cfg.Seed))
	return fcache.Key{
		Kind:     fcache.KindTimeline,
		Version:  artifactVersion(),
		Behavior: h,
		Seed:     uint64(cfg.Seed),
		Length:   int64(total),
	}
}

// --- small encoding helpers shared by the core artifact codecs ---

func appendU32(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(v))
}

func appendString(buf []byte, s string) []byte {
	buf = appendU32(buf, len(s))
	return append(buf, s...)
}

func decodeU32(buf []byte) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("core: artifact truncated (u32)")
	}
	return int(binary.LittleEndian.Uint32(buf)), buf[4:], nil
}

func decodeString(buf []byte) (string, []byte, error) {
	n, buf, err := decodeU32(buf)
	if err != nil {
		return "", nil, err
	}
	if n < 0 || len(buf) < n {
		return "", nil, fmt.Errorf("core: artifact truncated (%d-byte string)", n)
	}
	return string(buf[:n]), buf[n:], nil
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func decodeF64(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("core: artifact truncated (f64)")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:], nil
}

// --- shard artifact ---

// shardBench is one benchmark's slice of a shard artifact: the interval
// indices characterized (first-appearance order) and their vectors.
type shardBench struct {
	id      string
	indices []int
	vectors *stats.Matrix // len(indices) x mica.NumMetrics
}

// shardArtifact is the persisted output of characterizing one shard's
// benchmarks: every unique sampled interval's 69-characteristic vector,
// plus the instruction total the characterization accounts for.
type shardArtifact struct {
	benches      []shardBench
	instructions uint64
}

// newShardArtifact packages deduplicated intervals and their vectors
// (parallel slices) as a shard artifact: one entry per run of
// consecutive intervals of the same benchmark, in work order.
func newShardArtifact(work []IntervalRef, vectors [][]float64, instructions uint64) shardArtifact {
	art := shardArtifact{instructions: instructions}
	for i := 0; i < len(work); {
		b := work[i].Bench
		j := i
		for j < len(work) && work[j].Bench == b {
			j++
		}
		sb := shardBench{id: b.ID(), indices: make([]int, 0, j-i), vectors: stats.NewMatrix(j-i, mica.NumMetrics)}
		for r := i; r < j; r++ {
			sb.indices = append(sb.indices, work[r].Index)
			copy(sb.vectors.Row(r-i), vectors[r])
		}
		art.benches = append(art.benches, sb)
		i = j
	}
	return art
}

// uniqueCount is the number of unique intervals the shard holds.
func (a *shardArtifact) uniqueCount() int {
	n := 0
	for i := range a.benches {
		n += len(a.benches[i].indices)
	}
	return n
}

// MarshalBinary encodes the shard (encoding.BinaryMarshaler). The
// payload leads with the producing artifactVersion: a shard artifact is
// the one artifact that crosses process (and machine) boundaries, so it
// must be rejectable on version skew even without its cache key.
func (a *shardArtifact) MarshalBinary() ([]byte, error) {
	size := 4 + 4 + 8
	for i := range a.benches {
		size += 8 + len(a.benches[i].id) + 4*len(a.benches[i].indices) + 8 + 8*len(a.benches[i].vectors.Data)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, artifactVersion())
	buf = appendU32(buf, len(a.benches))
	for i := range a.benches {
		sb := &a.benches[i]
		buf = appendString(buf, sb.id)
		buf = appendU32(buf, len(sb.indices))
		for _, idx := range sb.indices {
			buf = appendU32(buf, idx)
		}
		buf = sb.vectors.AppendBinary(buf)
	}
	buf = binary.LittleEndian.AppendUint64(buf, a.instructions)
	return buf, nil
}

// UnmarshalBinary decodes a shard encoded by MarshalBinary
// (encoding.BinaryUnmarshaler), rejecting payloads produced under any
// other artifact schema version.
func (a *shardArtifact) UnmarshalBinary(data []byte) error {
	ver, data, err := decodeU32(data)
	if err != nil {
		return err
	}
	if uint32(ver) != artifactVersion() {
		return fmt.Errorf("core: shard artifact schema version %#x, want %#x", ver, artifactVersion())
	}
	nb, data, err := decodeU32(data)
	if err != nil {
		return err
	}
	// Each benchmark needs at least its id length, index count and matrix
	// header; a count that cannot fit the payload is rejected before the
	// slice allocation, not after it OOMs.
	if nb < 0 || nb > len(data)/16 {
		return fmt.Errorf("core: shard with %d benchmarks does not fit %d bytes", nb, len(data))
	}
	benches := make([]shardBench, nb)
	for i := range benches {
		sb := &benches[i]
		if sb.id, data, err = decodeString(data); err != nil {
			return fmt.Errorf("core: shard benchmark %d: %w", i, err)
		}
		var n int
		if n, data, err = decodeU32(data); err != nil {
			return fmt.Errorf("core: shard %s: %w", sb.id, err)
		}
		if n < 0 || len(data) < 4*n {
			return fmt.Errorf("core: shard %s: %d indices do not fit payload", sb.id, n)
		}
		sb.indices = make([]int, n)
		for j := range sb.indices {
			sb.indices[j] = int(binary.LittleEndian.Uint32(data[4*j:]))
		}
		data = data[4*n:]
		if sb.vectors, data, err = stats.DecodeMatrix(data); err != nil {
			return fmt.Errorf("core: shard %s vectors: %w", sb.id, err)
		}
		if sb.vectors.Rows != n || sb.vectors.Cols != mica.NumMetrics {
			return fmt.Errorf("core: shard %s: %dx%d vector matrix for %d intervals",
				sb.id, sb.vectors.Rows, sb.vectors.Cols, n)
		}
	}
	if len(data) != 8 {
		return fmt.Errorf("core: shard tail is %d bytes, want 8", len(data))
	}
	a.benches = benches
	a.instructions = binary.LittleEndian.Uint64(data)
	return nil
}

// coveredShard is a shard artifact bound to the deduplicated intervals
// it must hold (work, in first-appearance order). Decoding checks the
// payload against work, so a loaded artifact is trusted only when it
// holds exactly those intervals in that order — the structure
// newShardArtifact produces and every consumer indexes by.
type coveredShard struct {
	shardArtifact
	work []IntervalRef
	// rows are the vectors in work order, set by compute or decoding.
	rows [][]float64
}

// compute characterizes work into the artifact and returns the
// vector-cache hit count.
func (a *coveredShard) compute(cfg Config, cache *fcache.Cache) (int, error) {
	vectors, instructions, hits, err := characterizeUnique("characterize", a.work, cfg, cache)
	if err != nil {
		return 0, err
	}
	a.shardArtifact = newShardArtifact(a.work, vectors, instructions)
	a.rows = vectors
	return hits, nil
}

// UnmarshalBinary decodes the shard and checks its coverage of work
// (encoding.BinaryUnmarshaler).
func (a *coveredShard) UnmarshalBinary(data []byte) error {
	if err := a.shardArtifact.UnmarshalBinary(data); err != nil {
		return err
	}
	if got := a.uniqueCount(); got != len(a.work) {
		return fmt.Errorf("core: shard holds %d unique intervals, want %d", got, len(a.work))
	}
	a.rows = make([][]float64, 0, len(a.work))
	for bi := range a.benches {
		sb := &a.benches[bi]
		for j, idx := range sb.indices {
			r := a.work[len(a.rows)]
			if idx != r.Index || sb.id != r.Bench.ID() {
				return fmt.Errorf("core: shard interval %d is %s#%d, want %s", len(a.rows), sb.id, idx, r)
			}
			a.rows = append(a.rows, sb.vectors.Row(j))
		}
	}
	return nil
}

// --- prominent-phase summary artifact ---

// summaryArtifact persists the prominent-phase summaries. Decoding needs
// the registry to restore each representative's *bench.Benchmark.
type summaryArtifact struct {
	reg    *bench.Registry
	phases []PhaseSummary
}

// MarshalBinary encodes the summaries (encoding.BinaryMarshaler).
func (a *summaryArtifact) MarshalBinary() ([]byte, error) {
	var buf []byte
	buf = appendU32(buf, len(a.phases))
	for i := range a.phases {
		p := &a.phases[i]
		buf = appendU32(buf, p.Cluster)
		buf = appendF64(buf, p.Weight)
		buf = append(buf, byte(p.Kind))
		repID := ""
		if p.Representative.Bench != nil {
			repID = p.Representative.Bench.ID()
		}
		buf = appendString(buf, repID)
		buf = appendU32(buf, p.Representative.Index)
		buf = appendU32(buf, p.Representative.Total)
		buf = appendU32(buf, len(p.RepVector))
		for _, v := range p.RepVector {
			buf = appendF64(buf, v)
		}
		buf = appendU32(buf, len(p.Composition))
		for _, c := range p.Composition {
			buf = appendString(buf, c.BenchID)
			buf = appendString(buf, string(c.Suite))
			buf = appendF64(buf, c.ClusterShare)
			buf = appendF64(buf, c.BenchmarkFraction)
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes summaries encoded by MarshalBinary, resolving
// representative benchmarks against the configured registry
// (encoding.BinaryUnmarshaler).
func (a *summaryArtifact) UnmarshalBinary(data []byte) error {
	n, data, err := decodeU32(data)
	if err != nil {
		return err
	}
	// A phase needs at least its fixed fields (cluster, weight, kind,
	// rep id/index/total, two counts); bound the allocation by the bytes
	// actually present.
	if n < 0 || n > len(data)/29 {
		return fmt.Errorf("core: summary with %d phases does not fit %d bytes", n, len(data))
	}
	phases := make([]PhaseSummary, n)
	for i := range phases {
		p := &phases[i]
		if p.Cluster, data, err = decodeU32(data); err != nil {
			return fmt.Errorf("core: summary phase %d: %w", i, err)
		}
		if p.Weight, data, err = decodeF64(data); err != nil {
			return fmt.Errorf("core: summary phase %d: %w", i, err)
		}
		if len(data) < 1 {
			return fmt.Errorf("core: summary phase %d truncated", i)
		}
		p.Kind = PhaseKind(data[0])
		data = data[1:]
		var repID string
		if repID, data, err = decodeString(data); err != nil {
			return fmt.Errorf("core: summary phase %d: %w", i, err)
		}
		var idx, total int
		if idx, data, err = decodeU32(data); err != nil {
			return fmt.Errorf("core: summary phase %d: %w", i, err)
		}
		if total, data, err = decodeU32(data); err != nil {
			return fmt.Errorf("core: summary phase %d: %w", i, err)
		}
		if repID != "" {
			b, lerr := a.reg.Lookup(repID)
			if lerr != nil {
				return fmt.Errorf("core: summary phase %d: %w", i, lerr)
			}
			p.Representative = IntervalRef{Bench: b, Index: idx, Total: total}
		}
		var nv int
		if nv, data, err = decodeU32(data); err != nil {
			return fmt.Errorf("core: summary phase %d: %w", i, err)
		}
		if nv < 0 || len(data) < 8*nv {
			return fmt.Errorf("core: summary phase %d: %d-element vector does not fit", i, nv)
		}
		if nv > 0 {
			p.RepVector = make([]float64, nv)
			for j := range p.RepVector {
				p.RepVector[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
			}
		}
		data = data[8*nv:]
		var nc int
		if nc, data, err = decodeU32(data); err != nil {
			return fmt.Errorf("core: summary phase %d: %w", i, err)
		}
		if nc < 0 || nc > len(data)/24 {
			return fmt.Errorf("core: summary phase %d: %d composition entries do not fit %d bytes", i, nc, len(data))
		}
		if nc > 0 {
			p.Composition = make([]BenchShare, nc)
		}
		for j := range p.Composition {
			c := &p.Composition[j]
			if c.BenchID, data, err = decodeString(data); err != nil {
				return fmt.Errorf("core: summary phase %d share %d: %w", i, j, err)
			}
			var suite string
			if suite, data, err = decodeString(data); err != nil {
				return fmt.Errorf("core: summary phase %d share %d: %w", i, j, err)
			}
			c.Suite = bench.Suite(suite)
			if c.ClusterShare, data, err = decodeF64(data); err != nil {
				return fmt.Errorf("core: summary phase %d share %d: %w", i, j, err)
			}
			if c.BenchmarkFraction, data, err = decodeF64(data); err != nil {
				return fmt.Errorf("core: summary phase %d share %d: %w", i, j, err)
			}
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("core: %d trailing bytes after summary", len(data))
	}
	a.phases = phases
	return nil
}

// --- timeline artifact ---

// timelineArtifact persists one benchmark's AnalyzeTimeline result.
type timelineArtifact struct {
	t Timeline
}

// MarshalBinary encodes the timeline (encoding.BinaryMarshaler).
func (a *timelineArtifact) MarshalBinary() ([]byte, error) {
	buf := appendString(nil, a.t.BenchID)
	buf = appendU32(buf, a.t.NumPhases)
	buf = appendU32(buf, a.t.Transitions)
	buf = appendU32(buf, len(a.t.Phases))
	for _, p := range a.t.Phases {
		buf = appendU32(buf, p)
	}
	buf = a.t.Vectors.AppendBinary(buf)
	return buf, nil
}

// UnmarshalBinary decodes a timeline encoded by MarshalBinary
// (encoding.BinaryUnmarshaler).
func (a *timelineArtifact) UnmarshalBinary(data []byte) error {
	var t Timeline
	var err error
	if t.BenchID, data, err = decodeString(data); err != nil {
		return fmt.Errorf("core: timeline: %w", err)
	}
	if t.NumPhases, data, err = decodeU32(data); err != nil {
		return fmt.Errorf("core: timeline %s: %w", t.BenchID, err)
	}
	var n int
	if n, data, err = decodeU32(data); err != nil {
		return fmt.Errorf("core: timeline %s: %w", t.BenchID, err)
	}
	t.Transitions = n
	if n, data, err = decodeU32(data); err != nil {
		return fmt.Errorf("core: timeline %s: %w", t.BenchID, err)
	}
	if n < 0 || len(data) < 4*n {
		return fmt.Errorf("core: timeline %s: %d phases do not fit payload", t.BenchID, n)
	}
	t.Phases = make([]int, n)
	for i := range t.Phases {
		p := int(binary.LittleEndian.Uint32(data[4*i:]))
		if p < 0 || p >= t.NumPhases {
			return fmt.Errorf("core: timeline %s: phase %d = %d out of [0,%d)", t.BenchID, i, p, t.NumPhases)
		}
		t.Phases[i] = p
	}
	data = data[4*n:]
	var rest []byte
	if t.Vectors, rest, err = stats.DecodeMatrix(data); err != nil {
		return fmt.Errorf("core: timeline %s vectors: %w", t.BenchID, err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: timeline %s: %d trailing bytes", t.BenchID, len(rest))
	}
	if t.Vectors.Rows != len(t.Phases) || t.Vectors.Cols != mica.NumMetrics {
		return fmt.Errorf("core: timeline %s: %dx%d vectors for %d intervals",
			t.BenchID, t.Vectors.Rows, t.Vectors.Cols, len(t.Phases))
	}
	a.t = t
	return nil
}
