package main

// The traced replay. core.Run hides its layer boundaries, so a traced op
// re-executes the same run through the library's public entry points —
// core.SampleRefs, core.VectorKey with fcache GetVector/PutVector,
// trace.GenerateIntervalBatches feeding mica.Analyzer.RecordBatch,
// stats.ComputePCA and RescaledScores, cluster.KMeans, the GA via
// Result.SelectKeyCharacteristics, and Result.WriteJSON — with a span
// around each call. The replay must reproduce the untraced op's
// intermediate results and export bytes exactly (sameResult), so the
// per-layer numbers describe the same work. It omits core.Run's
// stage-artifact writes, whose keys and formats are internal to core.

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/isa"
	"repro/internal/mica"
	"repro/internal/mica/ilp"
	"repro/internal/mica/ppm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

// layerCounts are the per-layer work counts a replay observes.
type layerCounts struct {
	instr       uint64 // instructions generated and measured
	gets, hits  int    // vector-cache lookups and hits
	puts        int    // vector-cache writes
	putBytes    int64  // payload bytes written
	lloydIters  int64
	evaluations int
	// busyNs is par.worker_busy_ns over the characterize stage and
	// capacityNs that stage's wall time times its worker count.
	busyNs, capacityNs float64
	generated          []core.IntervalRef // intervals generated (for the sub-analyzer replay)
}

func (c *layerCounts) add(o layerCounts) {
	c.instr += o.instr
	c.gets += o.gets
	c.hits += o.hits
	c.puts += o.puts
	c.putBytes += o.putBytes
	c.lloydIters += o.lloydIters
	c.evaluations += o.evaluations
	c.busyNs += o.busyNs
	c.capacityNs += o.capacityNs
}

// replayRun is core.Run for (reg, cfg) with a span around every layer
// call, under the root span parent of op. cache may be nil.
func replayRun(t *tracer, op, parent int, reg *bench.Registry, cfg core.Config, cache *fcache.Cache) (*core.Result, layerCounts, error) {
	var n layerCounts
	if err := cfg.Validate(); err != nil {
		return nil, n, err
	}
	s := t.begin("core.sample", op, parent, 1)
	refs := core.SampleRefs(reg, cfg)
	t.end(s)

	s = t.begin("core.characterize", op, parent, 1)
	ds, n, err := replayCharacterize(t, op, s, refs, cfg, cache)
	t.end(s)
	if err != nil {
		return nil, n, err
	}

	s = t.begin("stats.pca", op, parent, 1)
	pca, err := stats.ComputePCA(ds.Raw, true)
	t.end(s)
	if err != nil {
		return nil, n, err
	}
	s = t.begin("stats.scores", op, parent, 1)
	scores, err := pca.RescaledScores(ds.Raw, pca.NumRetained(cfg.MinPCStd))
	t.end(s)
	if err != nil {
		return nil, n, err
	}

	km := cfg.KMeans
	km.Metrics = obs.New() // counts Lloyd iterations; never influences the fit
	s = t.begin("cluster.kmeans", op, parent, 1)
	cl, err := cluster.KMeans(scores, cfg.NumClusters, km)
	t.end(s)
	if err != nil {
		return nil, n, err
	}
	n.lloydIters = km.Metrics.Counter("kmeans.lloyd_iters").Value()

	res := &core.Result{
		Config: cfg, Registry: reg, Dataset: ds,
		PCA: pca, NumPCs: scores.Cols, Scores: scores, Clusters: cl,
	}
	s = t.begin("core.prominent", op, parent, 1)
	res.Prominent = summarizeProminent(res, cfg.NumProminent)
	t.end(s)
	return res, n, nil
}

// replayCharacterize is the characterize stage: the sampled refs'
// unique intervals fanned over the par pool exactly as core does, each
// served from the vector cache or generated and measured.
func replayCharacterize(t *tracer, op, parent int, refs []core.IntervalRef, cfg core.Config, cache *fcache.Cache) (*core.Dataset, layerCounts, error) {
	var n layerCounts
	type key struct {
		id    string
		index int
	}
	slot := make(map[key]int, len(refs))
	var work []core.IntervalRef
	for _, r := range refs {
		k := key{r.Bench.ID(), r.Index}
		if _, ok := slot[k]; !ok {
			slot[k] = len(work)
			work = append(work, r)
		}
	}
	workers := par.Workers(cfg.Workers)
	weight := 1 / float64(max(1, min(workers, len(work))))
	vectors := make([][]float64, len(work))
	errs := make([]error, len(work))
	generated := make([]bool, len(work))
	analyzers := make([]*mica.Analyzer, workers)
	buffers := make([][]isa.Instruction, workers)
	parts := make([]layerCounts, workers)
	busy := obs.New()
	prev := par.Instrument(busy)
	t0 := time.Now()
	par.ForWorker(workers, len(work), func(w, i int) {
		r := work[i]
		beh := r.Bench.BehaviorAt(r.Index, r.Total)
		seed := r.Bench.IntervalSeed(r.Index)
		p := &parts[w]
		var k fcache.Key
		if cache != nil {
			k = core.VectorKey(beh, seed, cfg.IntervalLength)
			s := t.begin("fcache.get", op, parent, weight)
			v, ok := cache.GetVector(k, mica.NumMetrics)
			t.end(s)
			p.gets++
			if ok {
				vectors[i] = v
				p.hits++
				return
			}
		}
		a := analyzers[w]
		if a == nil {
			a = mica.NewAnalyzer()
			analyzers[w] = a
			buffers[w] = make([]isa.Instruction, trace.DefaultBatchSize)
		}
		s := t.begin("mica.vector", op, parent, weight)
		a.Reset()
		t.end(s)
		g := t.begin("trace.generate", op, parent, weight)
		err := trace.GenerateIntervalBatches(beh, seed, cfg.IntervalLength, buffers[w], func(b []isa.Instruction) {
			s := t.begin("mica.record", op, g, weight)
			a.RecordBatch(b)
			t.end(s)
		})
		t.end(g)
		if err != nil {
			errs[i] = fmt.Errorf("interval %s: %w", r, err)
			return
		}
		s = t.begin("mica.vector", op, parent, weight)
		vectors[i] = a.Vector()
		t.end(s)
		p.instr += a.Total()
		generated[i] = true
		if cache != nil {
			s := t.begin("fcache.put", op, parent, weight)
			err := cache.PutVector(k, vectors[i])
			t.end(s)
			if err == nil {
				p.puts++
				p.putBytes += int64(8 * len(vectors[i]))
			}
		}
	})
	wall := time.Since(t0)
	par.Instrument(prev)
	n.busyNs = float64(busy.Counter("par.worker_busy_ns").Value())
	n.capacityNs = float64(wall.Nanoseconds()) * float64(min(workers, len(work)))
	if err := par.FirstError(errs); err != nil {
		return nil, n, err
	}
	for _, p := range parts {
		n.add(p)
	}
	for i, g := range generated {
		if g {
			n.generated = append(n.generated, work[i])
		}
	}
	raw := stats.NewMatrix(len(refs), mica.NumMetrics)
	for i, r := range refs {
		copy(raw.Row(i), vectors[slot[key{r.Bench.ID(), r.Index}]])
	}
	return &core.Dataset{
		Refs:            append([]core.IntervalRef(nil), refs...),
		Raw:             raw,
		UniqueIntervals: len(work),
		Instructions:    n.instr + uint64(n.hits)*uint64(cfg.IntervalLength),
		CacheHits:       n.hits,
	}, n, nil
}

// summarizeProminent reproduces core's prominent-phase summary (the
// n heaviest clusters with their composition) from the exported
// clustering helpers; sameResult pins it to core's output.
func summarizeProminent(r *core.Result, n int) []core.PhaseSummary {
	order := r.Clusters.ByWeight()
	n = min(n, len(order))
	reps := r.Clusters.Representatives(r.Scores)
	weights := r.Clusters.Weights()
	benchIdx := map[string]int{}
	var ids []string
	var suites []bench.Suite
	rowBench := make([]int, len(r.Dataset.Refs))
	for i, ref := range r.Dataset.Refs {
		id := ref.Bench.ID()
		bi, ok := benchIdx[id]
		if !ok {
			bi = len(ids)
			benchIdx[id] = bi
			ids = append(ids, id)
			suites = append(suites, ref.Bench.Suite)
		}
		rowBench[i] = bi
	}
	nb := len(ids)
	cells := make([]int, r.Clusters.K*nb)
	benchRows := make([]int, nb)
	for i, c := range r.Clusters.Assignments {
		cells[c*nb+rowBench[i]]++
		benchRows[rowBench[i]]++
	}
	out := make([]core.PhaseSummary, 0, n)
	for _, c := range order[:n] {
		counts := cells[c*nb : (c+1)*nb]
		total, members := 0, 0
		inSuite := map[bench.Suite]bool{}
		for bi, cnt := range counts {
			if cnt > 0 {
				total += cnt
				members++
				inSuite[suites[bi]] = true
			}
		}
		kind := core.Mixed
		switch {
		case members == 1:
			kind = core.BenchmarkSpecific
		case len(inSuite) == 1:
			kind = core.SuiteSpecific
		}
		comp := make([]core.BenchShare, 0, members)
		for bi, cnt := range counts {
			if cnt > 0 {
				comp = append(comp, core.BenchShare{
					BenchID:           ids[bi],
					Suite:             suites[bi],
					ClusterShare:      float64(cnt) / float64(max(total, 1)),
					BenchmarkFraction: float64(cnt) / float64(max(benchRows[bi], 1)),
				})
			}
		}
		sort.Slice(comp, func(a, b int) bool {
			if comp[a].ClusterShare != comp[b].ClusterShare {
				return comp[a].ClusterShare > comp[b].ClusterShare
			}
			return comp[a].BenchID < comp[b].BenchID
		})
		ps := core.PhaseSummary{Cluster: c, Weight: weights[c], Kind: kind, Composition: comp}
		if rep := reps[c]; rep >= 0 {
			ps.Representative = r.Dataset.Refs[rep]
			ps.RepVector = append([]float64(nil), r.Dataset.Raw.Row(rep)...)
		}
		out = append(out, ps)
	}
	return out
}

// sameResult reports the first difference between a replayed result
// and the untraced op's: dataset, scores, clustering and export bytes.
func sameResult(got, want *core.Result, gotJSON, wantJSON []byte) error {
	switch {
	case got.Dataset.UniqueIntervals != want.Dataset.UniqueIntervals,
		got.Dataset.Instructions != want.Dataset.Instructions,
		got.Dataset.CacheHits != want.Dataset.CacheHits:
		return fmt.Errorf("replay dataset counts differ: %d/%d/%d vs %d/%d/%d",
			got.Dataset.UniqueIntervals, got.Dataset.Instructions, got.Dataset.CacheHits,
			want.Dataset.UniqueIntervals, want.Dataset.Instructions, want.Dataset.CacheHits)
	case !sameFloats(got.Dataset.Raw.Data, want.Dataset.Raw.Data):
		return fmt.Errorf("replay dataset vectors differ")
	case !sameFloats(got.Scores.Data, want.Scores.Data):
		return fmt.Errorf("replay PCA scores differ")
	case fmt.Sprint(got.Clusters.Assignments) != fmt.Sprint(want.Clusters.Assignments):
		return fmt.Errorf("replay clustering differs")
	case !bytes.Equal(gotJSON, wantJSON):
		return fmt.Errorf("replay export bytes differ")
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// subAnalyzerSplit regenerates the given intervals and replays each
// batch through standalone ILP and PPM analyzers — the two
// sub-analyzers mica.Analyzer.RecordBatch runs after its scalar pass —
// returning their weighted busy seconds. It runs outside the timed ops.
func subAnalyzerSplit(work []core.IntervalRef, length, workers int) (ilpS, ppmS float64, err error) {
	workers = par.Workers(workers)
	weight := 1 / float64(max(1, min(workers, len(work))))
	ilpParts := make([]float64, workers)
	ppmParts := make([]float64, workers)
	errs := make([]error, len(work))
	type state struct {
		ilp    *ilp.Analyzer
		groups []ppm.Group
		buf    []isa.Instruction
		outs   []ppm.Outcome
	}
	states := make([]*state, workers)
	t := newTracer()
	par.ForWorker(workers, len(work), func(w, i int) {
		st := states[w]
		if st == nil {
			a, err := ilp.NewAnalyzer(ilp.StandardWindows)
			if err != nil {
				errs[i] = err
				return
			}
			st = &state{ilp: a, groups: ppm.StandardGroups(), buf: make([]isa.Instruction, trace.DefaultBatchSize)}
			states[w] = st
		}
		st.ilp.Reset()
		for g := range st.groups {
			st.groups[g].Reset()
		}
		r := work[i]
		errs[i] = trace.GenerateIntervalBatches(r.Bench.BehaviorAt(r.Index, r.Total), r.Bench.IntervalSeed(r.Index), length, st.buf,
			func(b []isa.Instruction) {
				st.outs = st.outs[:0]
				for j := range b {
					if b[j].Op.IsConditional() {
						st.outs = append(st.outs, ppm.Outcome{PC: b[j].PC, Taken: b[j].Taken})
					}
				}
				t0 := t.now()
				if len(st.outs) > 0 {
					for g := range st.groups {
						st.groups[g].RecordAll(st.outs)
					}
				}
				t1 := t.now()
				st.ilp.RecordBatch(b)
				t2 := t.now()
				ppmParts[w] += t1 - t0
				ilpParts[w] += t2 - t1
			})
	})
	if err := par.FirstError(errs); err != nil {
		return 0, 0, err
	}
	return weight * sum(ilpParts), weight * sum(ppmParts), nil
}
