package core

// Incremental ("extend dataset") mode: the delta machinery that lets a
// run whose benchmark roster is a superset of the latest cached run
// reuse that run's artifacts instead of starting cold.
//
// The cache cannot express "extend" with the standard key chain alone:
// adding one benchmark changes the dataset hash and with it every
// downstream key, so a superset run misses everywhere even though almost
// all of its inputs are already characterized. The bridge is a baseline
// manifest (fcache.KindBaseline) written after every unsharded
// incremental-mode run (enabling Incremental both records baselines and
// consumes them — a cold `-incremental` run is how a baseline is born):
// the benchmark roster (IDs + content hashes + sampled row counts),
// the shard layout, and the identities of the run's eigenbasis and
// clustering artifacts. An incremental run loads the manifest, checks
// that every baseline benchmark is still present with an identical
// content hash ("extend dataset"; any mismatch means "new dataset" and
// the run proceeds cold), re-derives the baseline's shard keys, and
// reuses the cached vectors row for row.
//
// Reuse comes in two regimes with very different guarantees:
//
//   - The delta characterize path is EXACT: baseline rows are copied from
//     shard artifacts whose loading is bit-for-bit equivalent to
//     recomputation, new rows are characterized normally, and the merged
//     full-roster shard artifact is written back under its standard key
//     (it is exact content, and it lets the next append chain).
//
//   - The frozen-basis analysis path is APPROXIMATE: the baseline's PCA
//     eigenbasis is reused for projection (gated by the appended rows'
//     reconstruction drift) and k-means is warm-started from the
//     baseline centroids (gated by the refined centroids' shift).
//     Approximate results never live under standard keys — the warm
//     clustering is persisted only under a delta-tagged key, and the
//     frozen basis is never re-persisted — so the engine invariant
//     ("loading an artifact is bit-for-bit equivalent to recomputing
//     it") holds for every standard artifact. With both gates at zero
//     the frozen path is disabled and the run is byte-identical to cold.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fcache"
	"repro/internal/mica"
	"repro/internal/stats"
	"repro/internal/trace"
)

// manifestBench is one benchmark's row in the baseline manifest.
type manifestBench struct {
	// id is the "suite/name" benchmark identifier.
	id string
	// hash is the benchmark's benchHash — its full characterization input.
	hash uint64
	// rows is how many sampled dataset rows the benchmark contributed.
	rows int
}

// baselineManifest describes the latest cached run under one set of
// sampling parameters: what was characterized and where its analysis
// artifacts live. It is keyed by the parameter fold alone (last write
// wins), so "the baseline" is always the most recent cached run.
type baselineManifest struct {
	// rows is the baseline's sampled dataset row count.
	rows int
	// shardCount is how many shard artifacts hold the baseline vectors.
	shardCount int
	// benches lists the baseline roster in its registry order.
	benches []manifestBench
	// basisBehavior / basisRows identify the exact PCA artifact whose
	// eigenbasis frozen-basis projection may reuse. A frozen-regime run
	// carries its predecessor's basis forward unchanged (it fitted no new
	// basis of its own).
	basisBehavior uint64
	basisRows     int
	// clusterBehavior / clusterRows identify the clustering artifact to
	// warm-start from: the standard cluster artifact after an exact run,
	// a delta-tagged one after a frozen-regime run.
	clusterBehavior uint64
	clusterRows     int
}

// MarshalBinary encodes the manifest (encoding.BinaryMarshaler).
func (m *baselineManifest) MarshalBinary() ([]byte, error) {
	var buf []byte
	buf = appendU32(buf, m.rows)
	buf = appendU32(buf, m.shardCount)
	buf = appendU32(buf, len(m.benches))
	for i := range m.benches {
		mb := &m.benches[i]
		buf = appendString(buf, mb.id)
		buf = binary.LittleEndian.AppendUint64(buf, mb.hash)
		buf = appendU32(buf, mb.rows)
	}
	buf = binary.LittleEndian.AppendUint64(buf, m.basisBehavior)
	buf = appendU32(buf, m.basisRows)
	buf = binary.LittleEndian.AppendUint64(buf, m.clusterBehavior)
	buf = appendU32(buf, m.clusterRows)
	return buf, nil
}

// UnmarshalBinary decodes a manifest encoded by MarshalBinary
// (encoding.BinaryUnmarshaler).
func (m *baselineManifest) UnmarshalBinary(data []byte) error {
	var err error
	if m.rows, data, err = decodeU32(data); err != nil {
		return fmt.Errorf("core: baseline manifest: %w", err)
	}
	if m.shardCount, data, err = decodeU32(data); err != nil {
		return fmt.Errorf("core: baseline manifest: %w", err)
	}
	var n int
	if n, data, err = decodeU32(data); err != nil {
		return fmt.Errorf("core: baseline manifest: %w", err)
	}
	// Each bench needs at least its id length, hash and row count.
	if n < 0 || n > len(data)/16 {
		return fmt.Errorf("core: baseline manifest with %d benchmarks does not fit %d bytes", n, len(data))
	}
	m.benches = make([]manifestBench, n)
	for i := range m.benches {
		mb := &m.benches[i]
		if mb.id, data, err = decodeString(data); err != nil {
			return fmt.Errorf("core: baseline manifest bench %d: %w", i, err)
		}
		if len(data) < 8 {
			return fmt.Errorf("core: baseline manifest bench %s truncated", mb.id)
		}
		mb.hash = binary.LittleEndian.Uint64(data)
		data = data[8:]
		if mb.rows, data, err = decodeU32(data); err != nil {
			return fmt.Errorf("core: baseline manifest bench %s: %w", mb.id, err)
		}
	}
	if len(data) != 8+4+8+4 {
		return fmt.Errorf("core: baseline manifest tail is %d bytes, want 24", len(data))
	}
	m.basisBehavior = binary.LittleEndian.Uint64(data)
	if m.basisRows, data, err = decodeU32(data[8:]); err != nil {
		return err
	}
	m.clusterBehavior = binary.LittleEndian.Uint64(data)
	m.clusterRows = int(binary.LittleEndian.Uint32(data[8:]))
	if m.shardCount < 1 || m.rows < 0 || m.basisRows < 0 || m.clusterRows < 0 {
		return fmt.Errorf("core: baseline manifest with invalid dimensions")
	}
	return nil
}

// manifestKey names the baseline manifest slot: one per sampling
// parameter set (the params fold already covers the pipeline seed).
func (k *artifactKeys) manifestKey() fcache.Key {
	return fcache.Key{
		Kind:     fcache.KindBaseline,
		Version:  artifactVersion(),
		Behavior: k.params,
		Seed:     k.seed,
	}
}

// deltaPlan is an applicable extend-dataset plan: the baseline manifest
// plus the set of benchmarks the current roster adds on top of it.
type deltaPlan struct {
	man *baselineManifest
	// newBench holds the IDs of benchmarks absent from the baseline.
	newBench map[string]bool
}

// planDelta loads the baseline manifest and checks the extend-dataset
// precondition: every baseline benchmark must still be present with an
// identical content hash. Any missing or changed benchmark means the
// current roster is a different dataset, not an extension, and the run
// proceeds cold (nil plan).
func (e *engine) planDelta() *deltaPlan {
	man := &baselineManifest{}
	if !e.cache.GetBinary(e.keys.manifestKey(), man) {
		e.logf("incremental: no baseline manifest for these parameters, running cold")
		return nil
	}
	idx := make(map[string]int, e.reg.Len())
	for i, b := range e.reg.All() {
		idx[b.ID()] = i
	}
	inBaseline := make(map[string]bool, len(man.benches))
	for i := range man.benches {
		mb := &man.benches[i]
		bi, ok := idx[mb.id]
		if !ok || e.keys.bench[bi] != mb.hash {
			e.logf("incremental: baseline benchmark %s missing or changed, running cold", mb.id)
			return nil
		}
		inBaseline[mb.id] = true
	}
	newBench := make(map[string]bool)
	for id := range idx {
		if !inBaseline[id] {
			newBench[id] = true
		}
	}
	e.logf("incremental: baseline covers %d of %d benchmarks (%d new)",
		len(man.benches), e.reg.Len(), len(newBench))
	return &deltaPlan{man: man, newBench: newBench}
}

// baselineShardKey re-derives the key of baseline shard s from the
// manifest: the baseline partitioned benchmark i to shard i % count in
// its own registry order, and the shard key folds the member benchmarks'
// hashes in that order over the (shared) parameter fold.
func (e *engine) baselineShardKey(man *baselineManifest, s int) fcache.Key {
	h := e.keys.params
	refCount := 0
	for i := s; i < len(man.benches); i += man.shardCount {
		h = foldHash(h, man.benches[i].hash)
		refCount += man.benches[i].rows
	}
	return fcache.Key{
		Kind:     fcache.KindShard,
		Version:  artifactVersion(),
		Behavior: h,
		Seed:     uint64(s)<<32 | uint64(man.shardCount),
		Length:   int64(refCount),
	}
}

// characterizeDelta is the exact extend-dataset characterize path:
// baseline rows come from the cached shard artifacts, only the new
// benchmarks' intervals are characterized, and the merged full-roster
// dataset is persisted under its standard shard key so the next append
// can chain. ok=false (without error) means a baseline artifact could
// not be served and the caller must fall back to the cold path — cache
// trouble recomputes, it never fails.
func (e *engine) characterizeDelta(refs []IntervalRef) (*Dataset, bool, error) {
	man := e.delta.man
	span := e.cfg.Metrics.StartSpan("characterize.delta").SetRows(len(refs)).SetDelta(true)

	type ik struct {
		id    string
		index int
	}
	vecs := make(map[ik][]float64, man.rows)
	var instructions uint64
	reused := 0
	for s := 0; s < man.shardCount; s++ {
		art := &shardArtifact{}
		if !e.cache.GetBinary(e.baselineShardKey(man, s), art) {
			e.logf("incremental: baseline shard %d/%d unavailable, running cold", s, man.shardCount)
			span.End()
			return nil, false, nil
		}
		for bi := range art.benches {
			sb := &art.benches[bi]
			for j, idx := range sb.indices {
				vecs[ik{sb.id, idx}] = sb.vectors.Row(j)
			}
		}
		instructions += art.instructions
		reused += art.uniqueCount()
	}

	// Characterize only the appended benchmarks' unique intervals.
	all, slot := dedupRefs(refs)
	var work []IntervalRef
	for _, r := range all {
		if e.delta.newBench[r.Bench.ID()] {
			work = append(work, r)
		}
	}
	hits := 0
	if len(work) > 0 {
		vectors, instr, h, err := characterizeUnique("characterize", work, e.cfg, e.cache)
		if err != nil {
			span.End()
			return nil, false, err
		}
		for i, r := range work {
			vecs[ik{r.Bench.ID(), r.Index}] = vectors[i]
		}
		instructions += instr
		hits = h
	}

	rows := make([][]float64, len(all))
	for i, r := range all {
		v, ok := vecs[ik{r.Bench.ID(), r.Index}]
		if !ok {
			// The baseline artifact decoded but does not hold a row the
			// deterministic sampler says it must: treat like any other
			// cache defect and recompute cold.
			e.logf("incremental: baseline shard is missing interval %s, running cold", r)
			span.End()
			return nil, false, nil
		}
		rows[i] = v
	}
	raw := stats.NewMatrix(len(refs), mica.NumMetrics)
	for i, s := range slot {
		copy(raw.Row(i), rows[s])
	}

	// Persist the merged full-roster artifact under the standard key: its
	// content is exact (copied baseline rows + freshly characterized new
	// rows), so it is a legal resident of the standard key space and the
	// baseline for the next append.
	merged := newShardArtifact(all, rows, instructions)
	benches := make([]int, e.reg.Len())
	for i := range benches {
		benches[i] = i
	}
	_ = e.cache.PutBinary(e.keys.shardKey(0, 1, benches, len(refs)), &merged)

	span.End()
	e.cfg.Metrics.Add("engine.delta_reused_rows", int64(reused))
	e.markStage("characterize", "delta")
	e.logf("characterize: reused %d baseline interval(s), characterized %d new", reused, len(work))
	return &Dataset{
		Refs:            append([]IntervalRef(nil), refs...),
		Raw:             raw,
		UniqueIntervals: reused + len(work),
		Instructions:    instructions,
		CacheHits:       reused + hits,
	}, true, nil
}

// frozenAnalysis is the analysis-stage output of the frozen-basis fast
// path: the reused eigenbasis, the recomputed (exact, cheap) projection
// scores, and the warm-started clustering.
type frozenAnalysis struct {
	pca      stats.PCA
	scores   stats.Matrix
	clusters cluster.Result
	// clusterBehavior is the delta-tagged key fold the clustering was
	// persisted under, recorded in the manifest for the next append.
	clusterBehavior uint64
}

// deltaClusterBehavior is the key fold for a warm-started (frozen-
// regime) clustering: the standard cluster chain, the basis it was
// projected through, and a tag that keeps it disjoint from every exact
// key — approximate artifacts must never shadow exact ones.
func (e *engine) deltaClusterBehavior(man *baselineManifest) uint64 {
	h := foldHash(e.keys.clusterHash(e.cfg), man.basisBehavior)
	return foldHash(h, 0x64656c7461) // "delta"
}

// tryFrozen attempts the frozen-basis analysis fast path over a
// delta-characterized dataset. nil (without error) means the exact
// stages must run: no applicable plan, gates disabled (zero), basis
// unavailable, or appended-row drift beyond the threshold.
func (e *engine) tryFrozen(ds *Dataset) (*frozenAnalysis, error) {
	if e.delta == nil || !e.cfg.Incremental.Enabled {
		return nil, nil
	}
	spec := e.cfg.Incremental
	man := e.delta.man
	if spec.MaxPCADrift <= 0 {
		e.cfg.Metrics.Add("engine.delta_fallback.pca", 1)
		e.logf("incremental: frozen basis disabled (drift threshold 0), refitting PCA")
		return nil, nil
	}
	var basis stats.PCA
	basisKey := fcache.Key{
		Kind:     fcache.KindPCA,
		Version:  artifactVersion(),
		Behavior: man.basisBehavior,
		Seed:     e.keys.seed,
		Length:   int64(man.basisRows),
	}
	if !e.cache.GetBinary(basisKey, &basis) || basis.Components == nil || basis.Components.Cols != ds.Raw.Cols {
		e.cfg.Metrics.Add("engine.delta_fallback.pca", 1)
		e.logf("incremental: baseline eigenbasis unavailable, refitting PCA")
		return nil, nil
	}
	kRet := basis.NumRetained(e.cfg.MinPCStd)
	var newRows []int
	for i, r := range ds.Refs {
		if e.delta.newBench[r.Bench.ID()] {
			newRows = append(newRows, i)
		}
	}
	drift, err := basis.ProjectionDrift(ds.Raw, newRows, kRet)
	if err != nil || drift > spec.MaxPCADrift {
		e.cfg.Metrics.Add("engine.delta_fallback.pca", 1)
		e.logf("incremental: appended-row drift %.4f exceeds %.4f, refitting PCA", drift, spec.MaxPCADrift)
		return nil, nil
	}
	fa := &frozenAnalysis{pca: basis}
	e.cfg.Metrics.StartSpan("pca").SetRows(ds.Raw.Rows).SetDelta(true).End()
	e.markStage("pca", "delta")
	e.logf("pca: frozen basis reused (drift %.4f over %d appended rows)", drift, len(newRows))

	// The projection itself is recomputed over every row — it is the
	// cheap O(n·k·d) tail of the stage, and recomputing keeps the scores
	// exact with respect to the (frozen) basis.
	sspan := e.cfg.Metrics.StartSpan("scores").SetRows(ds.Raw.Rows).SetDelta(true)
	scores, err := fa.pca.RescaledScores(ds.Raw, kRet)
	sspan.End()
	if err != nil {
		return nil, fmt.Errorf("core: frozen-basis scores: %w", err)
	}
	fa.scores = *scores
	e.markStage("scores", "delta")

	k := e.cfg.NumClusters
	kspan := e.cfg.Metrics.StartSpan("kmeans").SetRows(fa.scores.Rows).SetWorkers(e.cfg.Workers)
	warm := false
	var fitted *cluster.Result
	var base cluster.Result
	baseKey := fcache.Key{
		Kind:     fcache.KindCluster,
		Version:  artifactVersion(),
		Behavior: man.clusterBehavior,
		Seed:     e.keys.seed,
		Length:   int64(man.clusterRows),
	}
	if spec.MaxCentroidShift > 0 && e.cache.GetBinary(baseKey, &base) &&
		base.K == k && base.Centers != nil && base.Centers.Cols == fa.scores.Cols {
		refined, shift, rerr := cluster.Refine(&fa.scores, base.Centers, e.cfg.KMeans)
		if rerr == nil && shift <= spec.MaxCentroidShift {
			fitted = refined
			warm = true
			e.logf("kmeans: warm-started from baseline centroids (shift %.4f)", shift)
		} else if rerr == nil {
			e.logf("kmeans: centroid shift %.4f exceeds %.4f, running full k-means", shift, spec.MaxCentroidShift)
		}
	}
	if fitted == nil {
		e.cfg.Metrics.Add("engine.delta_fallback.kmeans", 1)
		full, kerr := cluster.KMeans(&fa.scores, k, e.cfg.KMeans)
		if kerr != nil {
			kspan.End()
			return nil, fmt.Errorf("core: clustering: %w", kerr)
		}
		fitted = full
	}
	kspan.SetDelta(warm).End()
	fa.clusters = *fitted
	if warm {
		e.markStage("kmeans", "delta")
	} else {
		e.markStage("kmeans", "computed")
	}
	// Persist under the delta-tagged key only: the warm clustering (and
	// even the full one — it was fitted over frozen-basis scores) is not
	// the exact artifact the standard key promises.
	fa.clusterBehavior = e.deltaClusterBehavior(man)
	_ = e.cache.PutBinary(fcache.Key{
		Kind:     fcache.KindCluster,
		Version:  artifactVersion(),
		Behavior: fa.clusterBehavior,
		Seed:     e.keys.seed,
		Length:   int64(e.keys.rows),
	}, &fa.clusters)
	return fa, nil
}

// writeManifest records this run as the new baseline for its sampling
// parameters. Exact runs point the basis and clustering at their own
// standard artifacts; frozen-regime runs carry the inherited basis
// forward and point the clustering at the delta-tagged artifact.
func (e *engine) writeManifest(ds *Dataset, frozen *frozenAnalysis) {
	if e.cache == nil || !e.cfg.Incremental.Enabled || e.cfg.Shard.Count > 1 {
		return
	}
	rowsByID := make(map[string]int, e.reg.Len())
	for _, r := range ds.Refs {
		rowsByID[r.Bench.ID()]++
	}
	man := &baselineManifest{rows: len(ds.Refs), shardCount: 1}
	for i, b := range e.reg.All() {
		man.benches = append(man.benches, manifestBench{id: b.ID(), hash: e.keys.bench[i], rows: rowsByID[b.ID()]})
	}
	if frozen != nil {
		man.basisBehavior, man.basisRows = e.delta.man.basisBehavior, e.delta.man.basisRows
		man.clusterBehavior, man.clusterRows = frozen.clusterBehavior, e.keys.rows
	} else {
		man.basisBehavior, man.basisRows = e.keys.pcaHash(), e.keys.rows
		man.clusterBehavior, man.clusterRows = e.keys.clusterHash(e.cfg), e.keys.rows
	}
	_ = e.cache.PutBinary(e.keys.manifestKey(), man)
}

// --- cumulative timeline statistics ---

// runningArtifact persists one benchmark's cumulative interval
// statistics: the merge-able accumulator plus the identity hash of every
// interval already folded, so reruns fold nothing and deeper timelines
// fold exactly the intervals they add.
type runningArtifact struct {
	run  *stats.Running
	seen []uint64 // sorted for a canonical encoding
}

// MarshalBinary encodes the artifact (encoding.BinaryMarshaler).
func (a *runningArtifact) MarshalBinary() ([]byte, error) {
	buf := a.run.AppendBinary(make([]byte, 0, 16+16*a.run.Cols()+8*len(a.seen)))
	buf = appendU32(buf, len(a.seen))
	for _, id := range a.seen {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	return buf, nil
}

// UnmarshalBinary decodes an artifact encoded by MarshalBinary
// (encoding.BinaryUnmarshaler).
func (a *runningArtifact) UnmarshalBinary(data []byte) error {
	run, data, err := stats.DecodeRunning(data)
	if err != nil {
		return fmt.Errorf("core: running stats: %w", err)
	}
	n, data, err := decodeU32(data)
	if err != nil {
		return fmt.Errorf("core: running stats ledger: %w", err)
	}
	if n < 0 || len(data) != 8*n {
		return fmt.Errorf("core: running stats ledger of %d entries does not fit %d bytes", n, len(data))
	}
	a.run = run
	a.seen = make([]uint64, n)
	for i := range a.seen {
		a.seen[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return nil
}

// runningKey names one benchmark's cumulative-statistics accumulator.
// The interval total is deliberately NOT part of the key: the whole
// point is that timelines of different depths fold into one slot.
func runningKey(b *bench.Benchmark, cfg Config) fcache.Key {
	h := foldHash(0x52554e53544154, trace.HashString(b.ID())) // "RUNSTAT"
	h = foldHash(h, uint64(cfg.IntervalLength))
	return fcache.Key{
		Kind:     fcache.KindRunning,
		Version:  artifactVersion(),
		Behavior: h,
		Seed:     uint64(cfg.Seed),
	}
}

// FoldTimelineStats folds a benchmark timeline's interval vectors into
// the benchmark's persisted cumulative-statistics accumulator and
// returns how many intervals were newly folded plus the updated
// accumulator. Intervals are identified by content (behavior hash +
// generator seed), so re-running the same timeline folds nothing, while
// a deeper timeline folds exactly the intervals whose behavior it adds.
// Folding happens in interval order, which keeps the accumulator bytes
// deterministic for a given fold history. Requires cfg.CacheDir.
func FoldTimelineStats(b *bench.Benchmark, cfg Config, tl *Timeline) (int, *stats.Running, error) {
	if err := cfg.Validate(); err != nil {
		return 0, nil, err
	}
	if cfg.CacheDir == "" {
		return 0, nil, fmt.Errorf("core: cumulative timeline statistics need a cache directory")
	}
	if tl == nil || tl.Vectors == nil {
		return 0, nil, fmt.Errorf("core: no timeline vectors to fold")
	}
	cache, err := openCache(cfg)
	if err != nil {
		return 0, nil, err
	}

	key := runningKey(b, cfg)
	art := &runningArtifact{}
	if !cache.GetBinary(key, art) || art.run.Cols() != tl.Vectors.Cols {
		art = &runningArtifact{run: stats.NewRunning(tl.Vectors.Cols)}
	}
	seen := make(map[uint64]bool, len(art.seen)+tl.Vectors.Rows)
	for _, id := range art.seen {
		seen[id] = true
	}
	total := tl.Vectors.Rows
	folded := 0
	for i := 0; i < total; i++ {
		id := foldHash(b.BehaviorAt(i, total).BehaviorHash(), b.IntervalSeed(i))
		if seen[id] {
			continue
		}
		seen[id] = true
		if err := art.run.Observe(tl.Vectors.Row(i)); err != nil {
			return folded, art.run, err
		}
		folded++
	}
	if folded > 0 {
		art.seen = make([]uint64, 0, len(seen))
		for id := range seen {
			art.seen = append(art.seen, id)
		}
		sort.Slice(art.seen, func(i, j int) bool { return art.seen[i] < art.seen[j] })
		if err := cache.PutBinary(key, art); err != nil {
			return folded, art.run, fmt.Errorf("core: persisting running stats: %w", err)
		}
	}
	return folded, art.run, nil
}
