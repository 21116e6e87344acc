package corpus

// The query front end shared by the phasechar CLI ("phasechar query")
// and the service (POST /corpus/query): one request/response pair, one
// Query entry point, one JSON rendering. Both callers marshal the same
// QueryResponse with the same two-space-indented encoder, which is what
// makes the CLI and service answers byte-identical — an invariant the
// verify gate cmp's.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Query defaults: a handful of neighbors, and a radius of 1.0 in the
// corpus-normalized space (one corpus-wide standard deviation of
// combined characteristic drift).
const (
	DefaultK      = 5
	DefaultRadius = 1.0
	maxK          = 1000
)

// QueryRequest is one corpus question. Op selects the question:
//
//	"stats"       corpus summary (no other fields)
//	"nearest"     k nearest records to Ref or Vector
//	"uniqueness"  one benchmark's corpus-uniqueness (Bench)
//	"novelty"     one suite's corpus-novelty (Suite)
type QueryRequest struct {
	Op string `json:"op"`
	// Ref names a corpus interval "suite/bench#index" as the nearest
	// query point; its own benchmark's records are excluded from the
	// answer (a record is trivially nearest to itself).
	Ref string `json:"ref,omitempty"`
	// Vector is an inline raw query point for "nearest" (the corpus
	// dimensionality, normally 69 MICA characteristics).
	Vector []float64 `json:"vector,omitempty"`
	// Bench is the "suite/name" benchmark for "uniqueness".
	Bench string `json:"bench,omitempty"`
	// Suite is the suite for "novelty".
	Suite string `json:"suite,omitempty"`
	// K is how many neighbors "nearest" returns (0: 5).
	K int `json:"k,omitempty"`
	// Radius is the neighbor radius for "uniqueness"/"novelty" in the
	// corpus-normalized space (0: 1.0; negative, NaN and infinite radii
	// are refused).
	Radius float64 `json:"radius,omitempty"`
	// Probe, when positive, answers "nearest" through the IVF partition
	// layer, scanning only the Probe nearest coarse lists instead of
	// every row. Probe >= the quantizer size is identical to the exact
	// scan; 0 is the exact scan.
	Probe int `json:"probe,omitempty"`
}

// QueryResponse is the answer to one QueryRequest. Exactly one of the
// payload fields is set, matching Op.
type QueryResponse struct {
	Op string `json:"op"`
	// Ref/K/Radius/Probe echo the effective question parameters.
	Ref    string  `json:"ref,omitempty"`
	K      int     `json:"k,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	Probe  int     `json:"probe,omitempty"`
	// Scanned is how many index rows the answer visited: every row for
	// an exact "nearest", the probed lists' rows for a probed one, and,
	// summed over the query's rows, the rows of the partition lists each
	// uniqueness or novelty row could not rule out (skipped rows of a
	// visited list included; an answer is the same whatever it scans).
	Scanned int `json:"scanned"`

	Stats      *Stats            `json:"stats,omitempty"`
	Neighbors  []Neighbor        `json:"neighbors,omitempty"`
	Uniqueness *UniquenessResult `json:"uniqueness,omitempty"`
	Novelty    *NoveltyResult    `json:"novelty,omitempty"`
}

// ErrBadQuery marks a request error: a bad op, argument, k, radius,
// probe, ref or vector, a benchmark or suite the corpus does not hold,
// or an empty corpus. Every other Query error is the corpus's own
// failure to answer (a manifest or segment it cannot read or decode, a
// column whose normalization overflows). errors.Is tells them apart;
// the service answers the first kind with 400 and the second with 500.
var ErrBadQuery = errors.New("corpus: bad query")

// badQuery is a request error: its message, matching ErrBadQuery.
type badQuery string

func (e badQuery) Error() string { return string(e) }
func (e badQuery) Unwrap() error { return ErrBadQuery }

// badQueryf formats a request error.
func badQueryf(format string, args ...any) error {
	return badQuery(fmt.Sprintf(format, args...))
}

// Query answers one request against the corpus as currently on disk:
// the manifest is re-read, so ingests by other processes are visible to
// the next query. The answer is for the manifest the query read, even
// when an ingest or compaction lands while it scans: Query holds the
// corpus lock only to re-read the manifest and take its snapshot. A
// request error matches ErrBadQuery; no request panics.
func (c *Corpus) Query(req QueryRequest) (*QueryResponse, error) {
	t0 := time.Now()
	if req.K == 0 {
		req.K = DefaultK
	}
	if req.Radius == 0 {
		req.Radius = DefaultRadius
	}
	if req.K < 0 || req.K > maxK {
		return nil, badQueryf("corpus: k = %d outside [1,%d]", req.K, maxK)
	}
	if req.Radius < 0 || math.IsNaN(req.Radius) || math.IsInf(req.Radius, 0) {
		return nil, badQueryf("corpus: radius %g is not a finite non-negative number", req.Radius)
	}
	if req.Probe < 0 {
		return nil, badQueryf("corpus: negative probe %d", req.Probe)
	}

	c.lock()
	snap, err := c.snapshotLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	ix := snap.ix
	if req.Op != "stats" && len(ix.entries) == 0 {
		return nil, badQueryf("corpus: empty corpus at %s (ingest a run first: phasechar -corpus %s ... export)", c.dir, c.dir)
	}

	resp := &QueryResponse{Op: req.Op}
	switch req.Op {
	case "stats":
		st := snap.stats()
		resp.Stats = &st

	case "nearest":
		qn, exclude, ref, err := ix.nearestQueryPoint(req)
		if err != nil {
			return nil, err
		}
		resp.Ref, resp.K, resp.Probe = ref, req.K, req.Probe
		cand, scanned := ix.nearest(qn, req.K, req.Probe, exclude)
		resp.Scanned = scanned
		resp.Neighbors = make([]Neighbor, len(cand))
		for i, cd := range cand {
			e := &ix.entries[cd.row]
			resp.Neighbors[i] = Neighbor{
				Bench: e.bench, Suite: e.suite, Kind: e.kind.String(),
				Index: e.index, Seq: e.seq, Dataset: e.dataset,
				Distance: sqrt(cd.d2),
			}
		}

	case "uniqueness":
		if req.Bench == "" {
			return nil, badQueryf(`corpus: op "uniqueness" needs a bench ("suite/name")`)
		}
		resp.Radius = req.Radius
		u, scanned, err := ix.uniqueness(req.Bench, req.Radius)
		if err != nil {
			return nil, err
		}
		resp.Scanned, resp.Uniqueness = scanned, &u

	case "novelty":
		if req.Suite == "" {
			return nil, badQueryf(`corpus: op "novelty" needs a suite`)
		}
		resp.Radius = req.Radius
		nv, scanned, err := ix.novelty(req.Suite, req.Radius)
		if err != nil {
			return nil, err
		}
		resp.Scanned, resp.Novelty = scanned, &nv

	default:
		return nil, badQueryf("corpus: unknown op %q (want stats, nearest, uniqueness or novelty)", req.Op)
	}

	c.queries.Inc()
	c.scanRows.Add(int64(resp.Scanned))
	c.queryTime.Observe(time.Since(t0))
	return resp, nil
}

// nearestQueryPoint resolves the "nearest" query point: an inline raw
// vector, or a Ref naming a corpus interval, in which case exclude is
// its benchmark's key (the answer leaves that benchmark out); else
// exclude is noKey.
func (ix *index) nearestQueryPoint(req QueryRequest) (qn []float64, exclude int32, ref string, err error) {
	switch {
	case req.Ref != "" && len(req.Vector) > 0:
		return nil, noKey, "", badQueryf(`corpus: op "nearest" takes a ref or a vector, not both`)
	case len(req.Vector) > 0:
		if len(req.Vector) != ix.dim {
			return nil, noKey, "", badQueryf("corpus: query vector has dim %d, corpus holds %d", len(req.Vector), ix.dim)
		}
		// A finite value can still overflow against a narrow column.
		qn := ix.normalize(req.Vector)
		if !finite(req.Vector) || !finite(qn) {
			return nil, noKey, "", badQueryf("corpus: query vector is not finite, raw or corpus-normalized")
		}
		return qn, noKey, "", nil
	case req.Ref != "":
		bench, idxStr, ok := strings.Cut(req.Ref, "#")
		if !ok {
			return nil, noKey, "", badQueryf(`corpus: ref %q is not "suite/bench#index"`, req.Ref)
		}
		n, err := strconv.Atoi(idxStr)
		if err != nil {
			return nil, noKey, "", badQueryf(`corpus: ref %q is not "suite/bench#index"`, req.Ref)
		}
		row := -1
		for _, r := range ix.byBench[bench] {
			if ix.entries[r].index == n {
				row = r
				break
			}
		}
		if row < 0 {
			return nil, noKey, "", badQueryf("corpus: no interval %q in the corpus", req.Ref)
		}
		return ix.norm.Row(row), ix.benchKey[row], req.Ref, nil
	default:
		return nil, noKey, "", badQueryf(`corpus: op "nearest" needs a ref ("suite/bench#index") or a vector`)
	}
}

// finite reports whether every value of v is a finite number.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// sqrt maps a clamped squared distance to its reported distance.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// WriteResponse renders resp as indented JSON, byte-identical to the
// service's /corpus/query body for the same answer (same encoder, same
// indent, same trailing newline).
func WriteResponse(w io.Writer, resp *QueryResponse) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}
