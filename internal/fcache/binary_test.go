package fcache

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/obs"
)

// blob is a minimal BinaryMarshaler/Unmarshaler for exercising the
// structured-artifact entry points. failDecode simulates an artifact whose
// stored payload no longer decodes (a schema drift the version field
// missed, or in-payload corruption the checksum cannot see).
type blob struct {
	data       []byte
	failDecode bool
}

func (b *blob) MarshalBinary() ([]byte, error) {
	return append([]byte(nil), b.data...), nil
}

func (b *blob) UnmarshalBinary(data []byte) error {
	if b.failDecode {
		return errors.New("blob: refusing payload")
	}
	b.data = append([]byte(nil), data...)
	return nil
}

func TestBinaryRoundTrip(t *testing.T) {
	c := testCache(t)
	k := testKey()
	k.Kind = KindPCA
	var got blob
	if c.GetBinary(k, &got) {
		t.Fatal("empty cache returned a binary hit")
	}
	in := &blob{data: []byte("structured artifact payload")}
	if err := c.PutBinary(k, in); err != nil {
		t.Fatal(err)
	}
	if !c.GetBinary(k, &got) {
		t.Fatal("stored artifact missed")
	}
	if !bytes.Equal(got.data, in.data) {
		t.Fatalf("payload = %q, want %q", got.data, in.data)
	}
}

// TestBinaryUndecodableEntryIsDeleted stores a valid entry whose payload
// the unmarshaler rejects: GetBinary must miss AND remove the entry, so
// the producing stage regenerates instead of failing forever.
func TestBinaryUndecodableEntryIsDeleted(t *testing.T) {
	c := testCache(t)
	m := obs.New()
	c.SetMetrics(m)
	k := testKey()
	k.Kind = KindCluster
	if err := c.PutBinary(k, &blob{data: []byte("fine bytes, wrong shape")}); err != nil {
		t.Fatal(err)
	}
	if c.GetBinary(k, &blob{failDecode: true}) {
		t.Fatal("undecodable artifact reported as a hit")
	}
	if _, err := os.Stat(c.path(k)); !os.IsNotExist(err) {
		t.Fatal("undecodable entry not removed")
	}
	if got := m.Counter("fcache.corrupt_deleted").Value(); got != 1 {
		t.Fatalf("fcache.corrupt_deleted = %d, want 1", got)
	}
	if got := m.Counter("fcache.misses.cluster").Value(); got != 1 {
		t.Fatalf("fcache.misses.cluster = %d, want 1", got)
	}
}

func TestKindNames(t *testing.T) {
	want := map[uint16]string{
		KindVector:   "vector",
		KindTrace:    "trace",
		KindShard:    "shard",
		KindPCA:      "pca",
		KindScores:   "scores",
		KindCluster:  "cluster",
		KindSummary:  "summary",
		KindTimeline: "timeline",
		KindBaseline: "baseline",
	}
	if len(want) != int(maxKind) {
		t.Fatalf("test covers %d kinds, maxKind = %d — update both", len(want), maxKind)
	}
	for kind, name := range want {
		if got := KindName(kind); got != name {
			t.Fatalf("KindName(%d) = %q, want %q", kind, got, name)
		}
	}
	if got := KindName(10); got != "kind10" {
		t.Fatalf("retired kind 10 is named %q", got)
	}
	if got := KindName(99); got != "kind99" {
		t.Fatalf("KindName(99) = %q", got)
	}
}

// TestPerKindCounters pins that traffic splits per artifact kind: a shard
// miss and hit must show under fcache.{misses,hits}.shard and also in the
// kind-blind totals.
func TestPerKindCounters(t *testing.T) {
	c := testCache(t)
	m := obs.New()
	c.SetMetrics(m)
	k := testKey()
	k.Kind = KindShard

	var b blob
	if c.GetBinary(k, &b) {
		t.Fatal("unexpected hit")
	}
	if err := c.PutBinary(k, &blob{data: []byte("shard bytes")}); err != nil {
		t.Fatal(err)
	}
	if !c.GetBinary(k, &b) {
		t.Fatal("stored shard missed")
	}

	val := func(name string) int64 { return m.Counter(name).Value() }
	if val("fcache.misses.shard") != 1 || val("fcache.hits.shard") != 1 {
		t.Fatalf("shard counters: hits=%d misses=%d, want 1/1",
			val("fcache.hits.shard"), val("fcache.misses.shard"))
	}
	if val("fcache.misses") != 1 || val("fcache.hits") != 1 {
		t.Fatalf("totals: hits=%d misses=%d, want 1/1", val("fcache.hits"), val("fcache.misses"))
	}
	if val("fcache.hits.vector") != 0 || val("fcache.misses.vector") != 0 {
		t.Fatal("shard traffic leaked into the vector counters")
	}
}
