package shardnet

// Wire frames for the shard RPC. Both directions use a fixed-layout
// little-endian binary encoding with a leading magic, an explicit wire
// version, and a trailing FNV-1a checksum over everything that precedes
// it, so a frame damaged anywhere in flight — truncated, bit-flipped,
// served by the wrong endpoint — is rejected by the decoder rather than
// interpreted. Decoders return errors, never panic, on arbitrary bytes
// (pinned by the fuzz targets in fuzz_test.go).

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

const (
	// WireVersion versions the frame layout itself. Bump on any layout
	// change; both ends refuse mismatched frames.
	WireVersion = 1

	reqMagic  uint32 = 0x534e5131 // "SNQ1"
	respMagic uint32 = 0x534e5031 // "SNP1"

	// reqFrameSize is the fixed encoded size of a ShardRequest.
	reqFrameSize = 4 + 2 + 2 + 4 + 4 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 8
	// respHeaderSize is the fixed prefix of a ShardResponse before the
	// payload; the trailing checksum adds 8 more bytes after it.
	respHeaderSize = 4 + 2 + 2 + 4 + 4 + 4 + 8 + 8
)

// fnv1a is the 64-bit FNV-1a checksum of b (the same construction the
// fcache entry format uses).
func fnv1a(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// ShardRequest asks a worker to characterize shard Index/Count of the
// dataset described by the sampling parameters. DatasetHash fingerprints
// the coordinator's registry + parameters (core.DatasetHash); a worker
// whose own fingerprint differs must refuse rather than compute a shard
// of a different dataset.
type ShardRequest struct {
	// ArtifactVersion is the coordinator's core.ShardArtifactVersion.
	ArtifactVersion uint32
	// Index / Count select the shard.
	Index, Count int
	// IntervalLength, SamplesPerBenchmark, MaxIntervalsPerBenchmark and
	// SampleByBenchmark are the dataset-shaping core.Config parameters.
	IntervalLength           int
	SamplesPerBenchmark      int
	MaxIntervalsPerBenchmark int
	SampleByBenchmark        bool
	// Seed is the pipeline seed.
	Seed int64
	// DatasetHash is core.DatasetHash(reg, cfg) on the coordinator.
	DatasetHash uint64
}

// NewShardRequest builds the request for shard (index, count) of a
// validated coordinator configuration.
func NewShardRequest(cfg core.Config, index, count int, datasetHash uint64) ShardRequest {
	return ShardRequest{
		ArtifactVersion:          core.ShardArtifactVersion(),
		Index:                    index,
		Count:                    count,
		IntervalLength:           cfg.IntervalLength,
		SamplesPerBenchmark:      cfg.SamplesPerBenchmark,
		MaxIntervalsPerBenchmark: cfg.MaxIntervalsPerBenchmark,
		SampleByBenchmark:        cfg.SampleByBenchmark,
		Seed:                     cfg.Seed,
		DatasetHash:              datasetHash,
	}
}

// Config reconstructs the worker-side pipeline configuration: the wire's
// dataset parameters plus the worker's own execution knobs (parallelism,
// local cache). Worker knobs are deliberately excluded from the dataset
// identity — every shard is worker-count and cache-state independent.
func (r *ShardRequest) Config(workers int, cacheDir string) core.Config {
	return core.Config{
		IntervalLength:           r.IntervalLength,
		SamplesPerBenchmark:      r.SamplesPerBenchmark,
		MaxIntervalsPerBenchmark: r.MaxIntervalsPerBenchmark,
		SampleByBenchmark:        r.SampleByBenchmark,
		Seed:                     r.Seed,
		Workers:                  workers,
		CacheDir:                 cacheDir,
	}
}

// MarshalBinary encodes the request frame (encoding.BinaryMarshaler).
func (r *ShardRequest) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, reqFrameSize)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, reqMagic)
	buf = le.AppendUint16(buf, WireVersion)
	buf = le.AppendUint16(buf, 0)
	buf = le.AppendUint32(buf, r.ArtifactVersion)
	buf = le.AppendUint32(buf, uint32(r.Index))
	buf = le.AppendUint32(buf, uint32(r.Count))
	buf = le.AppendUint32(buf, uint32(r.IntervalLength))
	buf = le.AppendUint32(buf, uint32(r.SamplesPerBenchmark))
	buf = le.AppendUint32(buf, uint32(r.MaxIntervalsPerBenchmark))
	var sampled uint32
	if r.SampleByBenchmark {
		sampled = 1
	}
	buf = le.AppendUint32(buf, sampled)
	buf = le.AppendUint64(buf, uint64(r.Seed))
	buf = le.AppendUint64(buf, r.DatasetHash)
	buf = le.AppendUint64(buf, fnv1a(buf))
	return buf, nil
}

// UnmarshalBinary decodes and validates a request frame
// (encoding.BinaryUnmarshaler).
func (r *ShardRequest) UnmarshalBinary(data []byte) error {
	le := binary.LittleEndian
	if len(data) != reqFrameSize {
		return fmt.Errorf("shardnet: request frame is %d bytes, want %d", len(data), reqFrameSize)
	}
	if le.Uint32(data) != reqMagic {
		return fmt.Errorf("shardnet: bad request magic")
	}
	if v := le.Uint16(data[4:]); v != WireVersion {
		return fmt.Errorf("shardnet: request wire version %d, want %d", v, WireVersion)
	}
	if got, want := le.Uint64(data[reqFrameSize-8:]), fnv1a(data[:reqFrameSize-8]); got != want {
		return fmt.Errorf("shardnet: request checksum mismatch")
	}
	r.ArtifactVersion = le.Uint32(data[8:])
	r.Index = int(le.Uint32(data[12:]))
	r.Count = int(le.Uint32(data[16:]))
	r.IntervalLength = int(le.Uint32(data[20:]))
	r.SamplesPerBenchmark = int(le.Uint32(data[24:]))
	r.MaxIntervalsPerBenchmark = int(le.Uint32(data[28:]))
	r.SampleByBenchmark = le.Uint32(data[32:]) != 0
	r.Seed = int64(le.Uint64(data[36:]))
	r.DatasetHash = le.Uint64(data[44:])
	if r.Count < 1 || r.Index < 0 || r.Index >= r.Count {
		return fmt.Errorf("shardnet: request for shard %d/%d", r.Index, r.Count)
	}
	return nil
}

// ShardResponse carries one computed shard artifact back to the
// coordinator. The echoes (version, shard coordinates, dataset hash) let
// the coordinator verify the response answers the request it sent before
// the payload is trusted.
type ShardResponse struct {
	// ArtifactVersion is the worker's core.ShardArtifactVersion.
	ArtifactVersion uint32
	// Index / Count echo the computed shard.
	Index, Count int
	// DatasetHash echoes the dataset fingerprint the shard belongs to.
	DatasetHash uint64
	// Payload is the encoded shard artifact (core shard codec).
	Payload []byte
}

// MarshalBinary encodes the response frame (encoding.BinaryMarshaler).
func (r *ShardResponse) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, respHeaderSize+len(r.Payload)+8)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, respMagic)
	buf = le.AppendUint16(buf, WireVersion)
	buf = le.AppendUint16(buf, 0)
	buf = le.AppendUint32(buf, r.ArtifactVersion)
	buf = le.AppendUint32(buf, uint32(r.Index))
	buf = le.AppendUint32(buf, uint32(r.Count))
	buf = le.AppendUint64(buf, r.DatasetHash)
	buf = le.AppendUint64(buf, uint64(len(r.Payload)))
	buf = append(buf, r.Payload...)
	buf = le.AppendUint64(buf, fnv1a(buf))
	return buf, nil
}

// UnmarshalBinary decodes and validates a response frame
// (encoding.BinaryUnmarshaler). The payload is copied out of data.
func (r *ShardResponse) UnmarshalBinary(data []byte) error {
	le := binary.LittleEndian
	if len(data) < respHeaderSize+8 {
		return fmt.Errorf("shardnet: response frame truncated (%d bytes)", len(data))
	}
	if le.Uint32(data) != respMagic {
		return fmt.Errorf("shardnet: bad response magic")
	}
	if v := le.Uint16(data[4:]); v != WireVersion {
		return fmt.Errorf("shardnet: response wire version %d, want %d", v, WireVersion)
	}
	n := le.Uint64(data[respHeaderSize-8:])
	if n != uint64(len(data)-respHeaderSize-8) {
		return fmt.Errorf("shardnet: response payload length %d does not match frame size %d", n, len(data))
	}
	if got, want := le.Uint64(data[len(data)-8:]), fnv1a(data[:len(data)-8]); got != want {
		return fmt.Errorf("shardnet: response checksum mismatch")
	}
	r.ArtifactVersion = le.Uint32(data[8:])
	r.Index = int(le.Uint32(data[12:]))
	r.Count = int(le.Uint32(data[16:]))
	r.DatasetHash = le.Uint64(data[20:])
	r.Payload = append([]byte(nil), data[respHeaderSize:respHeaderSize+int(n)]...)
	return nil
}
