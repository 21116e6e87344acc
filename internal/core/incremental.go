package core

// Extend-dataset reuse: how a cached run whose benchmark roster is a
// superset of the latest cached run's characterizes only what it adds.
//
// The cache cannot express "extend" with the standard key chain alone:
// the dataset key folds every benchmark's hash, so adding one benchmark
// misses it even though almost every row is already characterized. The
// bridge is a baseline manifest (fcache.KindBaseline), one slot per
// sampling-parameter set: the roster (IDs, content hashes, sampled row
// counts) of the last run whose characterize stage computed. Extending
// is a lookup rule, not a mode:
//
//   - the stage looks its dataset key up first; a hit loads the dataset
//     and neither reads nor writes the manifest;
//   - on a miss its compute consults the manifest. When every baseline
//     benchmark is still present with an identical content hash, it
//     copies the baseline's rows out of the baseline's dataset artifact
//     and characterizes only the added benchmarks; otherwise (no
//     manifest, a missing or changed benchmark) it characterizes every
//     interval through the vector tier;
//   - the computed dataset is persisted under its key like any other
//     artifact, and the manifest is rewritten to describe it, so the
//     next append chains onto this run.
//
// The path is exact: a copied row is the stored output of the same
// kernel, so the dataset — and every analysis stage downstream of it —
// is byte-identical to a cold run over the same roster. Cache trouble
// (a baseline dataset that cannot be served) recomputes cold and is
// counted; it never fails the run.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bench"
	"repro/internal/fcache"
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

// baselineManifest describes the latest dataset computed under
// one set of sampling parameters. It is keyed by the parameter fold alone
// (last write wins), so "the baseline" is always the most recent one.
type baselineManifest struct {
	// rows is the baseline's sampled dataset row count.
	rows int
	// benches lists the baseline roster in its registry order.
	benches []manifestBench
}

// MarshalBinary encodes the manifest (encoding.BinaryMarshaler): the row
// count, a shard count that is always 1, then the roster. The layout is
// the prefix of the earlier format, which appended a 24-byte analysis
// tail, so a manifest in that format is rejected for its trailing bytes
// (and its run characterizes cold) instead of being misread.
func (m *baselineManifest) MarshalBinary() ([]byte, error) {
	var buf []byte
	buf = appendU32(buf, m.rows)
	buf = appendU32(buf, 1)
	buf = appendU32(buf, len(m.benches))
	for i := range m.benches {
		mb := &m.benches[i]
		buf = appendString(buf, mb.id)
		buf = binary.LittleEndian.AppendUint64(buf, mb.hash)
		buf = appendU32(buf, mb.rows)
	}
	return buf, nil
}

// UnmarshalBinary decodes a manifest encoded by MarshalBinary
// (encoding.BinaryUnmarshaler).
func (m *baselineManifest) UnmarshalBinary(data []byte) error {
	rows, data, err := decodeU32(data)
	if err != nil {
		return fmt.Errorf("core: baseline manifest: %w", err)
	}
	shards, data, err := decodeU32(data)
	if err != nil {
		return fmt.Errorf("core: baseline manifest: %w", err)
	}
	if shards != 1 {
		return fmt.Errorf("core: baseline manifest over %d shards, want 1", shards)
	}
	n, data, err := decodeU32(data)
	if err != nil {
		return fmt.Errorf("core: baseline manifest: %w", err)
	}
	// Each bench needs at least its id length, hash and row count.
	if n > len(data)/16 {
		return fmt.Errorf("core: baseline manifest with %d benchmarks does not fit %d bytes", n, len(data))
	}
	benches := make([]manifestBench, n)
	sum := 0
	for i := range benches {
		mb := &benches[i]
		if mb.id, data, err = decodeString(data); err != nil {
			return fmt.Errorf("core: baseline manifest bench %d: %w", i, err)
		}
		if len(data) < 8 {
			return fmt.Errorf("core: baseline manifest bench %s truncated", mb.id)
		}
		mb.hash = binary.LittleEndian.Uint64(data)
		if mb.rows, data, err = decodeU32(data[8:]); err != nil {
			return fmt.Errorf("core: baseline manifest bench %s: %w", mb.id, err)
		}
		sum += mb.rows
	}
	if len(data) != 0 {
		return fmt.Errorf("core: %d trailing bytes after baseline manifest", len(data))
	}
	if sum != rows {
		return fmt.Errorf("core: baseline manifest of %d rows lists %d", rows, sum)
	}
	m.rows, m.benches = rows, benches
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
// identical content hash. A missing manifest, or any missing or changed
// benchmark (the current roster is a different dataset, not an
// extension), returns nil.
func (e *engine) planDelta() *deltaPlan {
	man := &baselineManifest{}
	if !e.cache.GetBinary(e.keys.manifestKey(), man) {
		e.logf("incremental: no baseline manifest for these parameters")
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
			e.logf("incremental: baseline benchmark %s missing or changed", mb.id)
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

// baselineKey re-derives the key of the baseline's dataset artifact
// from the manifest: the dataset key folds the member benchmarks'
// hashes in registry order over the (shared) parameter fold.
func (e *engine) baselineKey(man *baselineManifest) fcache.Key {
	h := e.keys.params
	for i := range man.benches {
		h = foldHash(h, man.benches[i].hash)
	}
	return characterizeKey(h, man.rows)
}

// extendOrCompute fills the dataset artifact art (sampled rows refs)
// after its key missed: it extends the baseline when one applies and
// characterizes every interval otherwise. It returns the cache hits —
// copied baseline rows count as hits — and whether the delta path served.
func (e *engine) extendOrCompute(refs []IntervalRef, art *coveredShard) (int, bool, error) {
	plan := e.planDelta()
	if plan == nil {
		e.cfg.Metrics.Add("engine.delta_inapplicable", 1)
	} else {
		hits, ok, err := e.characterizeDelta(plan, refs, art)
		if err != nil || ok {
			return hits, ok, err
		}
		e.cfg.Metrics.Add("engine.delta_fallback.characterize", 1)
	}
	hits, err := art.compute(e.cfg, e.cache)
	return hits, false, err
}

// characterizeDelta is the exact extend-dataset path: it copies the
// baseline rows out of the baseline's dataset artifact, characterizes
// only the appended benchmarks' intervals, and fills art in work order.
// ok=false (without error) means the baseline artifact could not serve
// the rows the plan needs and the caller must characterize cold.
func (e *engine) characterizeDelta(plan *deltaPlan, refs []IntervalRef, art *coveredShard) (int, bool, error) {
	span := e.cfg.Metrics.StartSpan("characterize.delta").SetRows(len(refs)).SetDelta(true)
	defer span.End()
	base := &shardArtifact{}
	if !e.cache.GetBinary(e.baselineKey(plan.man), base) {
		e.logf("incremental: baseline dataset unavailable, characterizing cold")
		return 0, false, nil
	}
	type ik struct {
		id    string
		index int
	}
	vecs := make(map[ik][]float64, base.uniqueCount())
	for bi := range base.benches {
		sb := &base.benches[bi]
		for j, idx := range sb.indices {
			vecs[ik{sb.id, idx}] = sb.vectors.Row(j)
		}
	}

	rows := make([][]float64, len(art.work))
	var fresh []IntervalRef
	var slots []int
	for i, r := range art.work {
		if plan.newBench[r.Bench.ID()] {
			fresh = append(fresh, r)
			slots = append(slots, i)
			continue
		}
		v, found := vecs[ik{r.Bench.ID(), r.Index}]
		if !found {
			e.logf("incremental: baseline dataset is missing interval %s, characterizing cold", r)
			return 0, false, nil
		}
		rows[i] = v
	}
	reused := len(art.work) - len(fresh)
	instructions := base.instructions
	hits := 0
	if len(fresh) > 0 {
		vectors, instr, h, err := characterizeUnique("characterize", fresh, e.cfg, e.cache)
		if err != nil {
			return 0, false, err
		}
		for j, i := range slots {
			rows[i] = vectors[j]
		}
		instructions += instr
		hits = h
	}
	art.shardArtifact = newShardArtifact(art.work, rows, instructions)
	art.rows = rows
	e.cfg.Metrics.Add("engine.delta_reused_rows", int64(reused))
	e.logf("characterize: reused %d baseline interval(s), characterized %d new", reused, len(fresh))
	return reused + hits, true, nil
}

// writeManifest records the just-computed dataset (sampled rows refs)
// as the baseline for its sampling parameters. A failed write is counted
// and logged: it only costs the next append its delta path.
func (e *engine) writeManifest(refs []IntervalRef) {
	rowsOf := make(map[*bench.Benchmark]int, e.reg.Len())
	for _, r := range refs {
		rowsOf[r.Bench]++
	}
	man := &baselineManifest{rows: len(refs)}
	for i, b := range e.reg.All() {
		man.benches = append(man.benches, manifestBench{id: b.ID(), hash: e.keys.bench[i], rows: rowsOf[b]})
	}
	if err := e.cache.PutBinary(e.keys.manifestKey(), man); err != nil {
		e.cfg.Metrics.Add("engine.manifest_write_errors", 1)
		e.logf("incremental: baseline manifest not written: %v", err)
	}
}
