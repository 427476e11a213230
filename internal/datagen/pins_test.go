package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"
)

// The generators are pinned by digest: a change to any sampler, to the
// graph the workload oracle reads or to the oracle itself moves one of
// these. The digests were recorded before the generators were made
// near-linear, so they also pin that rewrite to the old outputs, byte for
// byte. A deliberate change to a generator re-records them.
var generatorPins = []struct {
	kind     string
	scale    float64
	replay   string
	workload string
}{
	{"dblp", 0.25,
		"cca8bec4aa3f73c6a8037e86d57b539132f25a7b78513c66951ad627a66e3adf",
		"c94b43cd73b964d8a530166a4f6583e8735ca0239cd8aea8d0de9bc45487608c"},
	{"imdb", 0.25,
		"2c79dcc7524061c763542db9678746d8485764f49be8886c79a4664cc137dc0b",
		"246ffab6503896279816f1d6ee0f5a9cdc6af8e01c795e3aa96981e87aa151b4"},
	{"dblp", 2,
		"15eed8b12f60969700a483abcd29083b9ce719a0d03a72e2a52e955af8a37aac",
		"359a9e75b11e3cd2d868fd02a298526d0fe6b3af2d3024424c4c4d9ede2be88a"},
}

// pinQueries is the workload size each pinned corpus generates.
const pinQueries = 24

func TestBuildGeneratorPins(t *testing.T) {
	for _, pin := range generatorPins {
		name := fmt.Sprintf("%s×%g", pin.kind, pin.scale)
		ds, err := Generate(pin.kind, pin.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := replayDigest(t, ds); got != pin.replay {
			t.Errorf("%s: replay digest %s, pinned %s", name, got, pin.replay)
		}
		b, err := Build(ds)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := b.GenerateWorkload(UserLogConfig(pinQueries, 1001))
		if err != nil {
			t.Fatal(err)
		}
		if got := workloadDigest(qs); got != pin.workload {
			t.Errorf("%s: workload digest %s, pinned %s", name, got, pin.workload)
		}
	}
}

// replayDigest hashes the dataset's Replay stream: every tuple's table,
// key, text and entity key, then every link's relationship and keys.
func replayDigest(t *testing.T, ds *Dataset) string {
	h := sha256.New()
	err := ds.Replay(
		func(table, key, text, entityKey string) error {
			writeFields(h, "T", table, key, text, entityKey)
			return nil
		},
		func(rel, fromKey, toKey string) error {
			writeFields(h, "L", rel, fromKey, toKey)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloadDigest hashes each query's terms, class, gold key, gold
// endpoints and alternatives' keys.
func workloadDigest(qs []Query) string {
	h := sha256.New()
	for _, q := range qs {
		writeFields(h, "Q", q.Terms...)
		fmt.Fprintf(h, "class %d gold %s ends %v\n", q.Class, q.GoldKey, q.GoldEndpoints)
		for _, alt := range q.Alternatives {
			writeFields(h, "A", alt.CanonicalKey())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFields writes one tagged record of NUL-separated fields.
func writeFields(h hash.Hash, tag string, fields ...string) {
	io.WriteString(h, tag)
	for _, f := range fields {
		io.WriteString(h, "\x00"+f)
	}
	io.WriteString(h, "\n")
}
