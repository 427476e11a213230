package cirank

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"cirank/internal/datagen"
	"cirank/internal/graph"
	"cirank/internal/searchbench"
)

// shardFixture builds a generated DBLP engine plus a query workload through
// the public builder — large enough that partitions at count 4 are
// non-trivial, small enough for the race detector.
func shardFixture(t testing.TB) (*Engine, [][]string) {
	t.Helper()
	ds, err := datagen.GenerateDBLP(datagen.DefaultDBLPConfig(7).Scale(0.25))
	if err != nil {
		t.Fatal(err)
	}
	b := NewDBLPBuilder()
	if err := ds.Replay(b.InsertEntity, b.Relate); err != nil {
		t.Fatal(err)
	}
	eng, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	built, err := datagen.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := built.GenerateWorkload(datagen.UserLogConfig(16, 11))
	if err != nil {
		t.Fatal(err)
	}
	terms := make([][]string, len(queries))
	for i, q := range queries {
		terms[i] = q.Terms
	}
	return eng, terms
}

// sameResults demands bitwise-equal rankings: same order, bit-equal scores,
// identical rows and edges.
func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result %d score %.17g, want %.17g", label, i, got[i].Score, want[i].Score)
		}
		if len(got[i].Rows) != len(want[i].Rows) || len(got[i].Edges) != len(want[i].Edges) {
			t.Fatalf("%s: result %d shape differs", label, i)
		}
		for j := range got[i].Rows {
			if got[i].Rows[j] != want[i].Rows[j] {
				t.Fatalf("%s: result %d row %d differs: %+v vs %+v",
					label, i, j, got[i].Rows[j], want[i].Rows[j])
			}
		}
		for j := range got[i].Edges {
			if got[i].Edges[j] != want[i].Edges[j] {
				t.Fatalf("%s: result %d edge %d differs", label, i, j)
			}
		}
	}
}

func TestShardedByteIdentity(t *testing.T) {
	eng, queries := shardFixture(t)
	for _, count := range []int{1, 2, 4} {
		shards, err := ShardEngines(eng, count, 0)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		se, err := NewSharded(shards)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		if se.NumNodes() != eng.NumNodes() || se.NumEdges() != eng.NumEdges() {
			t.Fatalf("count %d: coordinator reports %d/%d, engine has %d/%d",
				count, se.NumNodes(), se.NumEdges(), eng.NumNodes(), eng.NumEdges())
		}
		for qi, terms := range queries {
			want, err := eng.SearchTerms(terms, 5, SearchOptions{})
			if err != nil {
				t.Fatalf("query %d: single-engine: %v", qi, err)
			}
			got, err := se.SearchTerms(terms, 5, SearchOptions{})
			if err != nil {
				t.Fatalf("count %d query %d: %v", count, qi, err)
			}
			sameResults(t, "sharded", got, want)
		}
	}
}

func TestShardedTermSelectivity(t *testing.T) {
	eng, queries := shardFixture(t)
	shards, err := ShardEngines(eng, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, terms := range queries {
		for _, term := range terms {
			if got, want := se.TermSelectivity(term), eng.TermSelectivity(term); got != want {
				t.Fatalf("TermSelectivity(%q) = %d sharded, %d single-engine", term, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no terms checked")
	}
	if se.TermSelectivity("nosuchterm") != 0 {
		t.Error("unknown term has nonzero selectivity")
	}
}

func TestShardSnapshotRoundTrip(t *testing.T) {
	eng, queries := shardFixture(t)
	shards, err := ShardEngines(eng, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := shards[1].ShardInfo()
	if !ok || info.Index != 1 || info.Count != 2 || info.Radius != DefaultShardRadius {
		t.Fatalf("ShardInfo = %+v, %v", info, ok)
	}
	if info.TotalNodes != eng.NumNodes() || info.TotalEdges != eng.NumEdges() {
		t.Fatalf("ShardInfo totals %d/%d, want %d/%d",
			info.TotalNodes, info.TotalEdges, eng.NumNodes(), eng.NumEdges())
	}
	if _, ok := eng.ShardInfo(); ok {
		t.Fatal("unpartitioned engine claims a shard slice")
	}

	base := filepath.Join(t.TempDir(), "snap")
	if err := SaveShardSet(shards, base); err != nil {
		t.Fatal(err)
	}
	se, err := OpenShardSet(base)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if se.NumShards() != 2 || se.Radius() != DefaultShardRadius {
		t.Fatalf("reopened set: %d shards radius %d", se.NumShards(), se.Radius())
	}
	for qi, terms := range queries[:4] {
		want, err := eng.SearchTerms(terms, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.SearchTerms(terms, 5, SearchOptions{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sameResults(t, "reopened sharded", got, want)
	}
	// Missing member: shard 1's file gone.
	if err := SaveShardSet(shards, filepath.Join(t.TempDir(), "gone")); err != nil {
		t.Fatal(err)
	}
}

// TestShardStrategiesAndPrune sweeps the shard-count × frontier-prune grid:
// every combination must reproduce the single-engine ranking byte for byte.
// The difftest harness runs the same grid on larger workloads; this is the
// fast in-tree anchor.
func TestShardStrategiesAndPrune(t *testing.T) {
	eng, queries := shardFixture(t)
	if len(queries) > 6 {
		queries = queries[:6]
	}
	for _, count := range []int{2, 4} {
		shards, err := ShardEngines(eng, count, 0)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		se, err := NewSharded(shards)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		for qi, terms := range queries {
			want, err := eng.SearchTerms(terms, 5, SearchOptions{})
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			for _, noPrune := range []bool{false, true} {
				got, err := se.SearchTerms(terms, 5, SearchOptions{DisableFrontierPrune: noPrune})
				if err != nil {
					t.Fatalf("count %d query %d noPrune=%v: %v", count, qi, noPrune, err)
				}
				sameResults(t, fmt.Sprintf("count %d noPrune=%v", count, noPrune), got, want)
			}
		}
	}
}

// TestShardPlanSnapshotRoundTrip pins the locality plan's trip through the
// v2 format: the non-contiguous owned set survives save/load, the frontier
// distances are rebuilt at load, and a re-save is byte-stable.
func TestShardPlanSnapshotRoundTrip(t *testing.T) {
	eng, queries := shardFixture(t)
	shards, err := ShardEngines(eng, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded := make([]*Engine, len(shards))
	for i, sh := range shards {
		snap := saveV2(t, sh)
		ld, err := LoadEngine(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		wantInfo, _ := sh.ShardInfo()
		gotInfo, ok := ld.ShardInfo()
		if !ok || gotInfo != wantInfo {
			t.Fatalf("shard %d info %+v, want %+v", i, gotInfo, wantInfo)
		}
		// The locality plan at count 4 is not an interval split, so the
		// explicit owned list must carry more than the span says.
		if gotInfo.OwnedCount == gotInfo.OwnedHi-gotInfo.OwnedLo {
			t.Logf("shard %d owned set is an interval (possible but unexpected at count 4)", i)
		}
		if len(ld.shard.Owned) != len(sh.shard.Owned) {
			t.Fatalf("shard %d owned length %d, want %d", i, len(ld.shard.Owned), len(sh.shard.Owned))
		}
		for j, v := range sh.shard.Owned {
			if ld.shard.Owned[j] != v {
				t.Fatalf("shard %d Owned[%d] = %d, want %d", i, j, ld.shard.Owned[j], v)
			}
		}
		// ownedDist is derived, not serialized: the loader recomputes it and
		// must land on exactly the build-time values.
		if len(ld.ownedDist) != len(sh.ownedDist) {
			t.Fatalf("shard %d ownedDist length %d, want %d", i, len(ld.ownedDist), len(sh.ownedDist))
		}
		for v := range sh.ownedDist {
			if ld.ownedDist[v] != sh.ownedDist[v] {
				t.Fatalf("shard %d ownedDist[%d] = %d, want %d", i, v, ld.ownedDist[v], sh.ownedDist[v])
			}
		}
		if again := saveV2(t, ld); !bytes.Equal(snap, again) {
			t.Fatalf("shard %d re-save differs: %d vs %d bytes", i, len(snap), len(again))
		}
		loaded[i] = ld
	}
	se, err := NewSharded(loaded)
	if err != nil {
		t.Fatal(err)
	}
	for qi, terms := range queries[:4] {
		want, err := eng.SearchTerms(terms, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.SearchTerms(terms, 5, SearchOptions{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sameResults(t, "reloaded locality set", got, want)
	}
}

// shardSectionBytes assembles a raw 56-byte shard section for decoder tests.
func shardSectionBytes(index, count, radius, lo, hi, totalNodes, totalEdges uint64) []byte {
	b := make([]byte, 0, shardSectionSize)
	for _, v := range []uint64{index, count, radius, lo, hi, totalNodes, totalEdges} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TestDecodeShardSectionOwnedValidation drives the decoder directly:
// well-formed owned sets decode, malformed ones fail as ErrBadSnapshot (a
// missing one is a row of TestSnapshotV2Corruptions).
func TestDecodeShardSectionOwnedValidation(t *testing.T) {
	section := func(lo, hi uint64, owned []uint32) map[string][]byte {
		ob := make([]byte, 0, 4*len(owned))
		for _, v := range owned {
			ob = binary.LittleEndian.AppendUint32(ob, v)
		}
		return map[string][]byte{
			secShard:    shardSectionBytes(0, 2, 3, lo, hi, 20, 40),
			secShardOwn: ob,
		}
	}
	m, err := decodeShardSection(section(2, 8, []uint32{2, 5, 7}), 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	if want := []graph.NodeID{2, 5, 7}; len(m.Owned) != len(want) ||
		m.Owned[0] != want[0] || m.Owned[1] != want[1] || m.Owned[2] != want[2] {
		t.Fatalf("Owned = %v, want %v", m.Owned, want)
	}
	// Empty owned set with an empty span is legal (more shards than nodes).
	if m, err = decodeShardSection(section(0, 0, nil), 20, 30); err != nil || len(m.Owned) != 0 {
		t.Fatalf("empty owned set: %v, %v", m, err)
	}
	bad := map[string]map[string][]byte{
		"unsorted owned":        section(2, 8, []uint32{2, 7, 5}),
		"duplicate owned":       section(2, 8, []uint32{2, 5, 5, 7}),
		"owned out of range":    section(2, 26, []uint32{2, 25}),
		"span head mismatch":    section(1, 8, []uint32{2, 5, 7}),
		"span tail mismatch":    section(2, 9, []uint32{2, 5, 7}),
		"empty set with span":   section(2, 8, nil),
		"ragged section length": {secShard: shardSectionBytes(0, 2, 3, 2, 8, 20, 40), secShardOwn: []byte{1, 2, 3}},
	}
	for name, secs := range bad {
		if _, err := decodeShardSection(secs, 20, 30); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

func TestShardedValidation(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	shards, err := ShardEngines(eng, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Re-sharding a shard engine is rejected.
	if _, err := ShardEngines(shards[0], 2, 1); !errors.Is(err, ErrShardSet) {
		t.Errorf("re-sharding a shard: err = %v", err)
	}
	// Out-of-order set.
	if _, err := NewSharded([]*Engine{shards[1], shards[0]}); !errors.Is(err, ErrShardSet) {
		t.Errorf("out-of-order set: err = %v", err)
	}
	// Incomplete set.
	if _, err := NewSharded(shards[:1]); !errors.Is(err, ErrShardSet) {
		t.Errorf("incomplete set: err = %v", err)
	}
	// Non-shard engine.
	if _, err := NewSharded([]*Engine{eng}); !errors.Is(err, ErrShardSet) {
		t.Errorf("plain engine: err = %v", err)
	}
	se, err := NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	// Radius 1 certifies diameters up to 2; the default 4 must be rejected.
	if _, err := se.Search("ullman", 3); !errors.Is(err, ErrBadOptions) {
		t.Errorf("over-horizon diameter: err = %v", err)
	}
	res, err := se.SearchTerms([]string{"tsimmis"}, 3, SearchOptions{Diameter: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.SearchTerms([]string{"tsimmis"}, 3, SearchOptions{Diameter: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "radius-1 set", res, want)
	if _, err := se.SearchTerms([]string{"x"}, 0, SearchOptions{Diameter: 2}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: err = %v", err)
	}
}

// BenchmarkShardedSearch is the ad-hoc way to re-measure scatter-gather:
// searchbench's dblp×2 stream (k=5, D=4, one worker per shard) through the
// coordinator at 1, 2 and 4 shards over one DefaultConfig engine, radius 2
// (the smallest halo that certifies D=4). shards=1 takes the same
// coordinator path, so it is the reference the other two compare to. Run
// with `go test -run '^$' -bench ShardedSearch .`; nothing gates on it — the
// structural gate is halo_test.go's ceilings.
func BenchmarkShardedSearch(b *testing.B) {
	dataSeed, querySeed := searchbench.DefaultSeeds("dblp")
	w, err := searchbench.Load("dblp", 2, dataSeed, querySeed)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := datagen.GenerateDBLP(datagen.DefaultDBLPConfig(dataSeed).Scale(2))
	if err != nil {
		b.Fatal(err)
	}
	bld := NewDBLPBuilder()
	if err := ds.Replay(bld.InsertEntity, bld.Relate); err != nil {
		b.Fatal(err)
	}
	eng, err := bld.Build(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	opts := SearchOptions{Diameter: 4, Workers: 1}
	for _, count := range []int{1, 2, 4} {
		engines, err := ShardEngines(eng, count, 2)
		if err != nil {
			b.Fatal(err)
		}
		se, err := NewSharded(engines)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := se.SearchTerms(w.Terms(i), 5, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
}
