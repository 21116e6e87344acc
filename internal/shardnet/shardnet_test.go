package shardnet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// testWorkers is the compute parallelism for both local and worker-side
// runs; SHARDNET_TEST_WORKERS overrides it so verify.sh can pin the
// distributed invariant at multiple worker counts.
func testWorkers(t *testing.T) int {
	t.Helper()
	v := os.Getenv("SHARDNET_TEST_WORKERS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		t.Fatalf("SHARDNET_TEST_WORKERS=%q", v)
	}
	return n
}

// testRegistry builds a small registry with two clearly distinct suites
// (the same shape core's unit tests use).
func testRegistry(t *testing.T) *bench.Registry {
	t.Helper()
	mk := func(name string, suite bench.Suite, intervals int, phases ...bench.Phase) *bench.Benchmark {
		return &bench.Benchmark{Name: name, Suite: suite, PaperIntervals: intervals, Phases: phases}
	}
	serial := func(name string) trace.PhaseBehavior {
		return trace.PhaseBehavior{
			Name: name, Mix: trace.BaseMix(), CodeSize: 800,
			Branch: trace.BranchSpec{TakenBias: 0.5, PatternPeriod: 0},
			Reg:    trace.RegDepSpec{MeanDepDist: 2, AvgSrcRegs: 1.4, WriteFraction: 0.7},
			Loads:  []trace.AccessPattern{{Kind: trace.PatternRandom, Weight: 1, Region: 1 << 22}},
			Stores: []trace.AccessPattern{{Kind: trace.PatternRandom, Weight: 1, Region: 1 << 20}},
			Jitter: 0.05,
		}
	}
	stream := func(name string) trace.PhaseBehavior {
		return trace.PhaseBehavior{
			Name: name, Mix: trace.FPBaseMix(), CodeSize: 800,
			Branch: trace.BranchSpec{TakenBias: 0.95, PatternPeriod: 32, NoiseLevel: 0.01},
			Reg:    trace.RegDepSpec{MeanDepDist: 20, AvgSrcRegs: 2, WriteFraction: 0.9},
			Loads:  []trace.AccessPattern{{Kind: trace.PatternStride, Weight: 1, Region: 1 << 22, Stride: 8}},
			Stores: []trace.AccessPattern{{Kind: trace.PatternStride, Weight: 1, Region: 1 << 20, Stride: 8}},
			Jitter: 0.05,
		}
	}
	reg, err := bench.NewRegistry([]*bench.Benchmark{
		mk("s1", "SuiteA", 100, bench.Phase{Weight: 1, Behavior: serial("s1/p")}),
		mk("s2", "SuiteA", 200, bench.Phase{Weight: 0.5, Behavior: serial("s2/a")},
			bench.Phase{Weight: 0.5, Behavior: stream("s2/b")}),
		mk("f1", "SuiteB", 100, bench.Phase{Weight: 1, Behavior: stream("f1/p")}),
		mk("f2", "SuiteB", 300, bench.Phase{Weight: 1, Behavior: stream("f2/p")}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func testConfig(t *testing.T) core.Config {
	cfg := core.TestConfig()
	cfg.IntervalLength = 1500
	cfg.SamplesPerBenchmark = 10
	cfg.MaxIntervalsPerBenchmark = 12
	cfg.NumClusters = 6
	cfg.NumProminent = 6
	cfg.Workers = testWorkers(t)
	return cfg
}

// plainExport runs the single-process pipeline and returns the exported
// JSON — the reference bytes every distributed cell must reproduce.
func plainExport(t *testing.T, reg *bench.Registry, cfg core.Config) []byte {
	t.Helper()
	res, err := core.Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startWorkers starts n shard servers over reg and returns their base
// URLs and hosts (for fault scripts), cleaned up with the test.
func startWorkers(t *testing.T, reg *bench.Registry, n, compute int) (urls, hosts []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		srv := &Server{Reg: reg, Workers: compute}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		hosts = append(hosts, strings.TrimPrefix(ts.URL, "http://"))
	}
	return urls, hosts
}

// distributedExport runs Distribute over the given shard count into a
// fresh cache, then a plain cached run over it, returning the exported
// JSON and the distribution stats.
func distributedExport(t *testing.T, reg *bench.Registry, cfg core.Config, shards int, coord *Coordinator) ([]byte, *DistributeStats) {
	t.Helper()
	cfg.CacheDir = t.TempDir()
	coord.shards = shards
	stats, err := coord.Distribute(reg, cfg)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	res, err := core.Run(reg, cfg, nil)
	if err != nil {
		t.Fatalf("run after Distribute: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// TestFaultMatrixByteIdentical is the distributed layer's load-bearing
// invariant: for every fault schedule that leaves >= 0 workers alive —
// transient 5xx, dropped connections, injected latency, corrupted
// frames, hangs until deadline, and 0..W dead workers — the run's
// result is byte-identical to the single-process run, and the retry /
// reassignment counters match exactly what the schedule implies.
func TestFaultMatrixByteIdentical(t *testing.T) {
	reg := testRegistry(t)
	cfg := testConfig(t)
	want := plainExport(t, reg, cfg)
	const shards, nWorkers = 6, 3

	cells := []struct {
		name    string
		faults  map[int][]FaultKind // worker index -> script
		timeout time.Duration       // 0: default
		// expected accounting
		retries, reassigned, timeouts, dead, local int
	}{
		{name: "clean"},
		{name: "5xx-once", faults: map[int][]FaultKind{0: {Fault5xx}}, retries: 1},
		{name: "drop-once", faults: map[int][]FaultKind{1: {FaultDrop}}, retries: 1},
		{name: "delay", faults: map[int][]FaultKind{0: {FaultDelay}, 2: {FaultDelay}}},
		{name: "corrupt-once", faults: map[int][]FaultKind{2: {FaultCorrupt}}, retries: 1},
		{name: "hang-once", faults: map[int][]FaultKind{0: {FaultHang}},
			timeout: 750 * time.Millisecond, retries: 1, timeouts: 1},
		{name: "one-down", faults: map[int][]FaultKind{2: {FaultDown}},
			retries: 2, reassigned: 2, dead: 1},
		{name: "two-down", faults: map[int][]FaultKind{1: {FaultDown}, 2: {FaultDown}},
			retries: 4, reassigned: 4, dead: 2},
		{name: "all-down", faults: map[int][]FaultKind{0: {FaultDown}, 1: {FaultDown}, 2: {FaultDown}},
			retries: 6, reassigned: 4, dead: 3, local: 6},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			urls, hosts := startWorkers(t, reg, nWorkers, cfg.Workers)
			faults := NewFaults(nil, 7)
			for w, script := range cell.faults {
				faults.Script(hosts[w], script...)
			}
			m := obs.New()
			coord := &Coordinator{
				Workers:     urls,
				Timeout:     cell.timeout,
				Retries:     2,
				BackoffBase: time.Millisecond,
				BackoffCap:  5 * time.Millisecond,
				Seed:        42,
				Transport:   faults,
				Metrics:     m,
			}
			got, stats := distributedExport(t, reg, cfg, shards, coord)
			if !bytes.Equal(got, want) {
				t.Errorf("distributed export differs from plain run (%d vs %d bytes)", len(got), len(want))
			}
			if stats.Retries != cell.retries || stats.Reassigned != cell.reassigned ||
				stats.Timeouts != cell.timeouts || stats.DeadWorkers != cell.dead || stats.Local != cell.local {
				t.Errorf("stats = %+v, want retries=%d reassigned=%d timeouts=%d dead=%d local=%d",
					stats, cell.retries, cell.reassigned, cell.timeouts, cell.dead, cell.local)
			}
			if remote := stats.Shards - cell.local; stats.Remote != remote {
				t.Errorf("remote = %d, want %d", stats.Remote, remote)
			}
			if got := m.Counter("rpc.retries").Value(); got != int64(cell.retries) {
				t.Errorf("rpc.retries = %d, want %d", got, cell.retries)
			}
			if got := m.Counter("rpc.reassigned").Value(); got != int64(cell.reassigned) {
				t.Errorf("rpc.reassigned = %d, want %d", got, cell.reassigned)
			}
			// Every remote success is one final attempt, every dead worker
			// failed exactly one fetch's initial attempt, and every retry is
			// one more attempt.
			wantSent := int64((shards - cell.local) + cell.dead + cell.retries)
			if got := m.Counter("rpc.sent").Value(); got != wantSent {
				t.Errorf("rpc.sent = %d, want %d", got, wantSent)
			}
		})
	}
}

// killingTransport closes a target server immediately after its first
// successful /shard response, modeling a worker dying mid-run.
type killingTransport struct {
	host   string
	server *httptest.Server
	once   sync.Once
}

func (k *killingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusOK && req.URL.Host == k.host {
		// Drain and replay the body so the caller still sees the full
		// response, then take the server down.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		k.once.Do(k.server.Close)
	}
	return resp, err
}

// TestWorkerDeathMidRun kills one worker after it served its first
// shard; its remaining shard must be reassigned and the result must
// still match the plain run byte for byte.
func TestWorkerDeathMidRun(t *testing.T) {
	reg := testRegistry(t)
	cfg := testConfig(t)
	want := plainExport(t, reg, cfg)

	srv := &Server{Reg: reg, Workers: cfg.Workers}
	dying := httptest.NewServer(srv.Handler())
	t.Cleanup(dying.Close)
	urls, _ := startWorkers(t, reg, 2, cfg.Workers)
	urls = append([]string{dying.URL}, urls...)

	m := obs.New()
	coord := &Coordinator{
		Workers:     urls,
		Retries:     2,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		Transport:   &killingTransport{host: strings.TrimPrefix(dying.URL, "http://"), server: dying},
		Metrics:     m,
	}
	got, stats := distributedExport(t, reg, cfg, 6, coord)
	if !bytes.Equal(got, want) {
		t.Errorf("distributed export differs from plain run")
	}
	if stats.DeadWorkers != 1 || stats.Reassigned != 1 || stats.Retries != 2 || stats.Local != 0 {
		t.Errorf("stats = %+v, want 1 dead, 1 reassigned, 2 retries, 0 local", stats)
	}
}

// TestDatasetMismatchFallsBackLocal points the coordinator at a worker
// built over a different registry: every request must be refused
// permanently (no retries), and the run must gracefully degrade to
// local computation with an unchanged result.
func TestDatasetMismatchFallsBackLocal(t *testing.T) {
	reg := testRegistry(t)
	cfg := testConfig(t)
	want := plainExport(t, reg, cfg)

	other, err := bench.NewRegistry((testRegistry(t)).All()[:2])
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Reg: other, Workers: cfg.Workers}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	m := obs.New()
	coord := &Coordinator{Workers: []string{ts.URL}, Retries: 2, Metrics: m}
	got, stats := distributedExport(t, reg, cfg, 3, coord)
	if !bytes.Equal(got, want) {
		t.Errorf("fallback export differs from plain run")
	}
	if stats.Retries != 0 || stats.DeadWorkers != 1 || stats.Local != 3 || stats.Remote != 0 {
		t.Errorf("stats = %+v, want 0 retries, 1 dead, 3 local, 0 remote", stats)
	}
	if refused := m.Counter("rpc.sent").Value(); refused != 1 {
		t.Errorf("rpc.sent = %d, want 1 (permanent refusal, no retry)", refused)
	}
}

// TestJitterSeedDoesNotChangeBytes pins that retry pacing — different
// jitter seeds and backoff shapes under the same fault schedule — never
// leaks into the exported result.
func TestJitterSeedDoesNotChangeBytes(t *testing.T) {
	reg := testRegistry(t)
	cfg := testConfig(t)
	want := plainExport(t, reg, cfg)

	var exports [][]byte
	for i, seed := range []int64{1, 999} {
		urls, hosts := startWorkers(t, reg, 3, cfg.Workers)
		faults := NewFaults(nil, 7)
		faults.Script(hosts[0], Fault5xx)
		faults.Script(hosts[1], FaultDrop)
		coord := &Coordinator{
			Workers:     urls,
			Retries:     2,
			Seed:        seed,
			BackoffBase: time.Duration(i+1) * time.Millisecond,
			BackoffCap:  time.Duration(i+1) * 4 * time.Millisecond,
			Transport:   faults,
		}
		got, _ := distributedExport(t, reg, cfg, 6, coord)
		exports = append(exports, got)
	}
	for i, got := range exports {
		if !bytes.Equal(got, want) {
			t.Errorf("export %d differs from plain run", i)
		}
	}
}

// TestDefaultShardsOnePerWorker pins the coordinator's zero shard
// count: one shard per worker, which is what phasechar always runs.
func TestDefaultShardsOnePerWorker(t *testing.T) {
	reg := testRegistry(t)
	cfg := testConfig(t)
	want := plainExport(t, reg, cfg)
	urls, _ := startWorkers(t, reg, 2, cfg.Workers)
	got, stats := distributedExport(t, reg, cfg, 0, &Coordinator{Workers: urls})
	if stats.Shards != 2 || stats.Remote != 2 {
		t.Errorf("stats = %+v, want 2 shards, both remote", stats)
	}
	if !bytes.Equal(got, want) {
		t.Error("export differs from plain run")
	}
}

// TestServeHealthz pins the liveness endpoint.
func TestServeHealthz(t *testing.T) {
	srv := &Server{Reg: testRegistry(t)}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestServerRefusals pins the refusal statuses: undecodable frames are
// 400, version skew is 409, and GET is 405.
func TestServerRefusals(t *testing.T) {
	reg := testRegistry(t)
	cfg := testConfig(t)
	srv := &Server{Reg: reg, Workers: cfg.Workers}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/shard", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post([]byte("garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage frame: %d, want 400", resp.StatusCode)
	}
	hash, err := core.DatasetHash(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := NewShardRequest(cfg, 0, 2, hash)
	req.ArtifactVersion++
	frame, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(frame); resp.StatusCode != http.StatusConflict {
		t.Errorf("version skew: %d, want 409", resp.StatusCode)
	}
	req = NewShardRequest(cfg, 0, 2, hash^1)
	frame, err = req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(frame); resp.StatusCode != http.StatusConflict {
		t.Errorf("dataset skew: %d, want 409", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/shard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /shard: %d, want 405", resp.StatusCode)
	}
}

// TestWireRoundTrip pins both frame codecs and their tamper detection.
func TestWireRoundTrip(t *testing.T) {
	req := ShardRequest{
		ArtifactVersion: core.ShardArtifactVersion(),
		Index:           2, Count: 5,
		IntervalLength: 1500, SamplesPerBenchmark: 10, MaxIntervalsPerBenchmark: 12,
		SampleByBenchmark: true, Seed: -3, DatasetHash: 0xdeadbeefcafef00d,
	}
	frame, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got ShardRequest
	if err := got.UnmarshalBinary(frame); err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("request round trip: %+v != %+v", got, req)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 1
		if err := new(ShardRequest).UnmarshalBinary(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}

	resp := ShardResponse{
		ArtifactVersion: 7, Index: 1, Count: 4,
		DatasetHash: 99, Payload: []byte("shard bytes"),
	}
	rframe, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var rgot ShardResponse
	if err := rgot.UnmarshalBinary(rframe); err != nil {
		t.Fatal(err)
	}
	if rgot.ArtifactVersion != resp.ArtifactVersion || rgot.Index != resp.Index ||
		rgot.Count != resp.Count || rgot.DatasetHash != resp.DatasetHash ||
		!bytes.Equal(rgot.Payload, resp.Payload) {
		t.Fatalf("response round trip: %+v != %+v", rgot, resp)
	}
	for i := range rframe {
		bad := append([]byte(nil), rframe...)
		bad[i] ^= 1
		if err := new(ShardResponse).UnmarshalBinary(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	if err := new(ShardResponse).UnmarshalBinary(rframe[:len(rframe)-3]); err == nil {
		t.Fatal("truncated response accepted")
	}
}

// TestFaultSpecParsing pins the CLI fault-spec grammar.
func TestFaultSpecParsing(t *testing.T) {
	hosts := []string{"a:1", "b:2", "c:3"}
	f := NewFaults(nil, 1)
	if err := f.AddSpec("0:5xx,corrupt;2:down", hosts); err != nil {
		t.Fatal(err)
	}
	if got := f.take("a:1"); got != Fault5xx {
		t.Errorf("a:1 first = %v, want 5xx", got)
	}
	if got := f.take("a:1"); got != FaultCorrupt {
		t.Errorf("a:1 second = %v, want corrupt", got)
	}
	if got := f.take("a:1"); got != FaultNone {
		t.Errorf("a:1 third = %v, want none", got)
	}
	if got := f.take("b:2"); got != FaultNone {
		t.Errorf("b:2 = %v, want none", got)
	}
	for i := 0; i < 3; i++ {
		if got := f.take("c:3"); got == FaultNone {
			t.Errorf("c:3 call %d = none, want sticky down", i)
		}
	}
	for _, bad := range []string{"9:drop", "x:drop", "0:bogus", "nope"} {
		if err := NewFaults(nil, 1).AddSpec(bad, hosts); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
