package cirank

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// saveV2 serializes the engine and returns the snapshot bytes.
func saveV2(t testing.TB, eng *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeSnapFile writes snapshot bytes into a temp file for Open.
func writeSnapFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eng.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// findEntry locates the section-table entry for name and returns its byte
// offset within data plus the section's (offset, length).
func findEntry(t testing.TB, data []byte, name string) (entryOff, off, length int) {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[8:]))
	for i := 0; i < count; i++ {
		e := snapHeaderSize + i*snapEntrySize
		got := string(bytes.TrimRight(data[e:e+snapNameLen], "\x00"))
		if got == name {
			return e, int(binary.LittleEndian.Uint64(data[e+16:])), int(binary.LittleEndian.Uint64(data[e+24:]))
		}
	}
	t.Fatalf("section %q not found", name)
	return 0, 0, 0
}

// fixSectionCRC recomputes one entry's payload CRC after a payload mutation.
func fixSectionCRC(data []byte, entryOff int) {
	off := binary.LittleEndian.Uint64(data[entryOff+16:])
	length := binary.LittleEndian.Uint64(data[entryOff+24:])
	crc := crc32.ChecksumIEEE(data[off : off+length])
	binary.LittleEndian.PutUint32(data[entryOff+32:], crc)
}

// fixTableCRC recomputes the header's section-table CRC after a table
// mutation, so structural corruptions reach the check they target instead of
// dying at the checksum gate.
func fixTableCRC(data []byte) {
	count := int(binary.LittleEndian.Uint32(data[8:]))
	table := data[snapHeaderSize : snapHeaderSize+count*snapEntrySize]
	binary.LittleEndian.PutUint32(data[12:], crc32.ChecksumIEEE(table))
}

// mutated returns a copy of data with f applied.
func mutated(data []byte, f func([]byte)) []byte {
	out := append([]byte(nil), data...)
	f(out)
	return out
}

// oneWaySnapshot cuts node 0's first out-edge from snap's csr.* sections and
// rewrites everything else that depends on it — the later offsets, node 0's
// out-sum, the meta edge count and the CRCs — so that the snapshot is valid
// but for one edge without its reverse. Only the edge section's length
// shrinks; no section moves.
func oneWaySnapshot(t testing.TB, snap []byte) []byte {
	t.Helper()
	return mutated(snap, func(d []byte) {
		offEntry, offOff, offLen := findEntry(t, d, secCSROff)
		edgeEntry, edgeOff, edgeLen := findEntry(t, d, secCSREdge)
		sumEntry, sumOff, _ := findEntry(t, d, secCSRSum)
		metaEntry, metaOff, _ := findEntry(t, d, secMeta)
		offsets, edges := d[offOff:offOff+offLen], d[edgeOff:edgeOff+edgeLen]
		deg := int(binary.LittleEndian.Uint32(offsets[4:])) - 1 // node 0's degree after the cut
		if deg < 0 {
			t.Fatal("node 0 has no edge to cut")
		}
		copy(edges, edges[16:])
		sum := 0.0
		for i := 0; i < deg; i++ {
			sum += math.Float64frombits(binary.LittleEndian.Uint64(edges[16*i+8:]))
		}
		binary.LittleEndian.PutUint64(d[sumOff:], math.Float64bits(sum))
		for i := 4; i < len(offsets); i += 4 {
			binary.LittleEndian.PutUint32(offsets[i:], binary.LittleEndian.Uint32(offsets[i:])-1)
		}
		binary.LittleEndian.PutUint64(d[edgeEntry+24:], uint64(edgeLen-16))
		binary.LittleEndian.PutUint64(d[metaOff+24:], binary.LittleEndian.Uint64(d[metaOff+24:])-1)
		for _, e := range []int{offEntry, edgeEntry, sumEntry, metaEntry} {
			fixSectionCRC(d, e)
		}
		fixTableCRC(d)
	})
}

// textSectionCorruptions returns snapshots of eng whose text section each
// break one rule of the text decoder, with every checksum recomputed so the
// decoder, not the CRC gate, refuses them. The offsets follow the text
// layout: a 20-byte header, then the first term's length word, its bytes,
// its posting count and its first (node, tf) posting.
func textSectionCorruptions(t testing.TB, eng *Engine) map[string][]byte {
	t.Helper()
	with := func(f func(text []byte) []byte) []byte {
		secs := eng.encodeSections()
		for i := range secs {
			if secs[i].name == secText {
				secs[i].payload = f(append([]byte(nil), secs[i].payload...))
			}
		}
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, secs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	const termOff = 20
	firstPosting := func(text []byte) int {
		return termOff + 4 + int(binary.LittleEndian.Uint32(text[termOff:])) + 4
	}
	put := func(off func([]byte) int, v uint32) []byte {
		return with(func(text []byte) []byte {
			binary.LittleEndian.PutUint32(text[off(text):], v)
			return text
		})
	}
	return map[string][]byte{
		"text section version 1": put(func([]byte) int { return 4 }, 1),
		"text terms unsorted": with(func(text []byte) []byte {
			text[termOff+4] = 0xff
			return text
		}),
		"text posting node out of range": put(firstPosting, uint32(eng.NumNodes())),
		"text posting zero tf":           put(func(text []byte) int { return firstPosting(text) + 4 }, 0),
		"text trailing bytes":            with(func(text []byte) []byte { return append(text, 0) }),
	}
}

// oneWayFixturePath is oneWaySnapshot of fig2Engine under DefaultConfig,
// committed so the server's reload test and the snapshot fuzzer load the
// same bytes.
const oneWayFixturePath = "testdata/oneway_edge.snap"

// requireSameResults asserts two engines return identical answers (scores,
// rows and tree edges) for the query.
func requireSameResults(t *testing.T, a, b *Engine, query string, k int) {
	t.Helper()
	ra, err := a.Search(query, k)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Search(query, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("result counts differ for %q: %d vs %d", query, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Score != rb[i].Score {
			t.Errorf("result %d for %q: score %g vs %g", i, query, ra[i].Score, rb[i].Score)
		}
		if len(ra[i].Rows) != len(rb[i].Rows) {
			t.Fatalf("result %d for %q: %d vs %d rows", i, query, len(ra[i].Rows), len(rb[i].Rows))
		}
		for j := range ra[i].Rows {
			if ra[i].Rows[j] != rb[i].Rows[j] {
				t.Errorf("result %d row %d for %q: %+v vs %+v", i, j, query, ra[i].Rows[j], rb[i].Rows[j])
			}
		}
		if len(ra[i].Edges) != len(rb[i].Edges) {
			t.Fatalf("result %d for %q: %d vs %d edges", i, query, len(ra[i].Edges), len(rb[i].Edges))
		}
		for j := range ra[i].Edges {
			if ra[i].Edges[j] != rb[i].Edges[j] {
				t.Errorf("result %d edge %d for %q: %v vs %v", i, j, query, ra[i].Edges[j], rb[i].Edges[j])
			}
		}
	}
}

// TestOpenMmapSkipsBuild is the headline property of the v2 format: Open
// must reach a queryable engine without running PageRank or the text-index
// build, and must answer exactly like the engine that was saved.
func TestOpenMmapSkipsBuild(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	path := writeSnapFile(t, saveV2(t, eng))
	loaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st := loaded.BuildStats()
	if st.Source != SourceMmap {
		t.Errorf("BuildStats().Source = %q, want %q", st.Source, SourceMmap)
	}
	if st.PageRank.Duration != 0 || st.TextIndex.Duration != 0 || st.Graph.Duration != 0 {
		t.Errorf("opened engine reports build-stage work: %+v", st)
	}
	requireSameResults(t, eng, loaded, "papakonstantinou ullman", 3)
	requireSameResults(t, eng, loaded, "tsimmis", 2)
	a, _ := eng.Importance("Paper", "p2")
	b, ok := loaded.Importance("Paper", "p2")
	if !ok || a != b {
		t.Errorf("importance after open = %g, %v; want %g", b, ok, a)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestOpenDeterministicResave pins the canonical-encoding property end to
// end: an engine opened zero-copy re-saves to exactly the bytes it was
// opened from.
func TestOpenDeterministicResave(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	snap := saveV2(t, eng)
	loaded, err := Open(writeSnapFile(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	again := saveV2(t, loaded)
	if !bytes.Equal(snap, again) {
		t.Fatalf("re-save differs: %d vs %d bytes", len(snap), len(again))
	}
}

// mergedEngine builds an IMDB engine where one person appears in two role
// tables (Actor nm1, Director nm9) merged via a shared entity key (§VI-A).
func mergedEngine(t testing.TB) *Engine {
	t.Helper()
	b := NewIMDBBuilder()
	insert := func(table, key, text, entity string) {
		t.Helper()
		if err := b.InsertEntity(table, key, text, entity); err != nil {
			t.Fatal(err)
		}
	}
	insert("Actor", "nm1", "Clint Eastwood", "person-1")
	insert("Director", "nm9", "Clint Eastwood", "person-1")
	insert("Movie", "m1", "Million Dollar Baby", "")
	insert("Movie", "m2", "Unforgiven", "")
	insert("Actor", "nm2", "Morgan Freeman", "")
	b.MustRelate("acts_in", "nm1", "m1")
	b.MustRelate("directs", "nm9", "m1")
	b.MustRelate("directs", "nm9", "m2")
	b.MustRelate("acts_in", "nm2", "m1")
	b.MustRelate("acts_in", "nm2", "m2")
	eng, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestMergedEntityLookupSurvivesReload is the satellite regression for the
// v1 limitation that motivated the entmap section: a merged-away role key
// (the Director row whose tuple merged into the Actor node) must keep
// resolving through Importance after every load path.
func TestMergedEntityLookupSurvivesReload(t *testing.T) {
	eng := mergedEngine(t)
	actorImp, ok := eng.Importance("Actor", "nm1")
	if !ok {
		t.Fatal("built engine cannot resolve Actor/nm1")
	}
	dirImp, ok := eng.Importance("Director", "nm9")
	if !ok {
		t.Fatal("built engine cannot resolve merged key Director/nm9")
	}
	if actorImp != dirImp {
		t.Fatalf("merged tuples report different importance: %g vs %g", actorImp, dirImp)
	}

	snap := saveV2(t, eng)
	streamed, err := LoadEngine(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(writeSnapFile(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	for name, loaded := range map[string]*Engine{"stream": streamed, "mmap": opened} {
		for _, probe := range []struct{ table, key string }{
			{"Actor", "nm1"}, {"Director", "nm9"}, {"Movie", "m2"},
		} {
			got, ok := loaded.Importance(probe.table, probe.key)
			if !ok {
				t.Errorf("%s load cannot resolve %s/%s", name, probe.table, probe.key)
				continue
			}
			want, _ := eng.Importance(probe.table, probe.key)
			if got != want {
				t.Errorf("%s load: importance of %s/%s = %g, want %g", name, probe.table, probe.key, got, want)
			}
		}
		if _, ok := loaded.Importance("Actor", "missing"); ok {
			t.Errorf("%s load resolves a key that was never inserted", name)
		}
	}
}

// TestSnapshotV2Corruptions drives every validation branch of the v2
// decoder with a targeted mutation; each must be rejected with a typed
// ErrBadSnapshot, never a panic or a silently wrong engine.
func TestSnapshotV2Corruptions(t *testing.T) {
	snap := saveV2(t, fig2Engine(t, DefaultConfig()))
	metaEntry, metaOff, _ := findEntry(t, snap, secMeta)
	impEntry, impOff, _ := findEntry(t, snap, secImp)
	_ = impEntry

	shard := readShardFixture(t)
	oneWay, err := os.ReadFile(oneWayFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	starFixture := readStarFixture(t)

	cases := map[string][]byte{
		"missing shard.owned":  dropLastSections(shard, 1),
		"truncated header":     snap[:10],
		"truncated table":      snap[:snapHeaderSize+snapEntrySize-4],
		"truncated payloads":   snap[:len(snap)-8],
		"bad magic":            mutated(snap, func(d []byte) { d[0] = 'X' }),
		"future version":       mutated(snap, func(d []byte) { binary.LittleEndian.PutUint32(d[4:], 3) }),
		"retired v1 version":   mutated(snap, func(d []byte) { binary.LittleEndian.PutUint32(d[4:], 1) }),
		"zero section count":   mutated(snap, func(d []byte) { binary.LittleEndian.PutUint32(d[8:], 0) }),
		"huge section count":   mutated(snap, func(d []byte) { binary.LittleEndian.PutUint32(d[8:], maxSections+1) }),
		"table CRC mismatch":   mutated(snap, func(d []byte) { d[snapHeaderSize] ^= 0xff }),
		"payload CRC mismatch": mutated(snap, func(d []byte) { d[impOff] ^= 0xff }),
		"unknown section name": mutated(snap, func(d []byte) {
			copy(d[metaEntry:metaEntry+snapNameLen], append([]byte("bogus"), make([]byte, snapNameLen-5)...))
			fixTableCRC(d)
		}),
		"nonzero reserved word": mutated(snap, func(d []byte) {
			d[metaEntry+36] = 1
			fixTableCRC(d)
		}),
		"misaligned offset": mutated(snap, func(d []byte) {
			binary.LittleEndian.PutUint64(d[metaEntry+16:], uint64(metaOff+8))
			fixTableCRC(d)
		}),
		"overlapping sections": mutated(snap, func(d []byte) {
			nodesEntry, _, _ := findEntry(t, d, secNodes)
			binary.LittleEndian.PutUint64(d[nodesEntry+16:], uint64(metaOff))
			fixTableCRC(d)
		}),
		"section out of bounds": mutated(snap, func(d []byte) {
			binary.LittleEndian.PutUint64(d[metaEntry+24:], uint64(len(d)))
			fixTableCRC(d)
		}),
		"unknown meta flags": mutated(snap, func(d []byte) {
			binary.LittleEndian.PutUint64(d[metaOff+32:], 1<<7)
			fixSectionCRC(d, metaEntry)
			fixTableCRC(d)
		}),
		"star sections without flag": starSectionsWithoutFlag(t, starFixture),
		"node count mismatch": mutated(snap, func(d []byte) {
			binary.LittleEndian.PutUint64(d[metaOff+16:], 1<<40)
			fixSectionCRC(d, metaEntry)
			fixTableCRC(d)
		}),
	}
	for name, data := range textSectionCorruptions(t, fig2Engine(t, DefaultConfig())) {
		cases[name] = data
	}
	// Valid but for one edge without its reverse: only FromCSR's reverse-edge
	// pass may refuse these (asserted below through its message).
	cases["one-way edge"] = oneWaySnapshot(t, snap)
	cases["one-way edge (fixture)"] = oneWay
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := LoadEngine(bytes.NewReader(data))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error is not ErrBadSnapshot: %v", err)
			}
			if name == "retired v1 version" && !strings.Contains(err.Error(), "version 1") {
				t.Errorf("v1 rejection does not name the version: %v", err)
			}
			if name == "text section version 1" && !strings.Contains(err.Error(), "re-save") {
				t.Errorf("text version 1 rejection does not say to re-save: %v", err)
			}
			if strings.HasPrefix(name, "text ") && !strings.Contains(err.Error(), "textindex:") {
				t.Errorf("text-section corruption refused by another check: %v", err)
			}
			if strings.HasPrefix(name, "one-way") && !strings.Contains(err.Error(), "has no reverse") {
				t.Errorf("one-way snapshot refused by another check: %v", err)
			}
			// The mmap path shares the decoder and must agree.
			if _, err := Open(writeSnapFile(t, data)); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Open error is not ErrBadSnapshot: %v", err)
			}
		})
	}
}

// shardFixturePath is shard 0 of a two-shard, radius-2 set cut from
// fig2Engine, as the last commit with shard engines (e40efd4) saved it: meta
// flag bit 1 set, "shard" and "shard.owned" the last two sections. It holds a
// member-induced subgraph of the corpus, not the corpus.
const shardFixturePath = "testdata/shard0_e40efd4.snap"

func readShardFixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(shardFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// dropLastSections returns data without its last n section-table entries.
// The payload offsets stay valid: the table only shrinks.
func dropLastSections(data []byte, n int) []byte {
	return mutated(data, func(d []byte) {
		count := binary.LittleEndian.Uint32(d[8:])
		binary.LittleEndian.PutUint32(d[8:], count-uint32(n))
		fixTableCRC(d)
	})
}

// TestShardSnapshotRejected: a leftover shard file must not open as a corpus.
// Whichever of its two marks survives (the flag bit or a section name), Open
// and LoadEngine refuse it with the re-save hint instead of ranking over a
// partial graph.
func TestShardSnapshotRejected(t *testing.T) {
	shard := readShardFixture(t)
	cases := map[string][]byte{
		"as saved":  shard,
		"flag only": dropLastSections(shard, 2),
		"sections only": mutated(shard, func(d []byte) {
			metaEntry, metaOff, _ := findEntry(t, d, secMeta)
			binary.LittleEndian.PutUint64(d[metaOff+32:], metaFlagStarIndex)
			fixSectionCRC(d, metaEntry)
			fixTableCRC(d)
		}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, loadErr := LoadEngine(bytes.NewReader(data))
			_, openErr := Open(writeSnapFile(t, data))
			for path, err := range map[string]error{"LoadEngine": loadErr, "Open": openErr} {
				if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "shard snapshots are no longer supported") {
					t.Errorf("%s: err = %v, want ErrBadSnapshot naming the retired shard format", path, err)
				}
			}
		})
	}
}

// starFixturePath is fig2Engine under DefaultConfig as commit 17c1a12 saved
// it, while the engine still built the §V-B star index: meta flag bit 0 set
// and the five star.* sections after entmap.
const starFixturePath = "testdata/star_sections_17c1a12.snap"

func readStarFixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(starFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// starSectionsWithoutFlag clears the star fixture's meta flags word, so its
// star.* sections are left without the flag that excuses them.
func starSectionsWithoutFlag(t testing.TB, fixture []byte) []byte {
	t.Helper()
	return mutated(fixture, func(d []byte) {
		metaEntry, metaOff, _ := findEntry(t, d, secMeta)
		binary.LittleEndian.PutUint64(d[metaOff+32:], 0)
		fixSectionCRC(d, metaEntry)
		fixTableCRC(d)
	})
}

// TestStarSectionsFixtureLoads: a file saved while the engine still built the
// star index keeps loading through Open and LoadEngine. Its star.* sections
// are skipped, so it answers like a fresh build, score for score, and
// re-saves to the fresh build's bytes.
func TestStarSectionsFixtureLoads(t *testing.T) {
	fixture := readStarFixture(t)
	if _, metaOff, _ := findEntry(t, fixture, secMeta); binary.LittleEndian.Uint64(fixture[metaOff+32:]) != metaFlagStarIndex {
		t.Fatal("fixture does not carry the star-index flag")
	}
	for _, name := range legacyStarSections {
		findEntry(t, fixture, name)
	}
	fresh := fig2Engine(t, DefaultConfig())
	streamed, err := LoadEngine(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	opened, err := Open(writeSnapFile(t, fixture))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer opened.Close()
	for name, loaded := range map[string]*Engine{"LoadEngine": streamed, "Open": opened} {
		t.Run(name, func(t *testing.T) {
			requireSameResults(t, fresh, loaded, "papakonstantinou ullman", 2)
			if !bytes.Equal(saveV2(t, loaded), saveV2(t, fresh)) {
				t.Error("re-saved fixture differs from a fresh build's snapshot")
			}
		})
	}
}

// TestDefaultSnapshotHasNoStarSections: a DefaultConfig engine saves no
// star.* section and a meta flags word of 0.
func TestDefaultSnapshotHasNoStarSections(t *testing.T) {
	snap := saveV2(t, fig2Engine(t, DefaultConfig()))
	count := int(binary.LittleEndian.Uint32(snap[8:]))
	for i := 0; i < count; i++ {
		e := snapHeaderSize + i*snapEntrySize
		if name := string(bytes.TrimRight(snap[e:e+snapNameLen], "\x00")); strings.HasPrefix(name, "star.") {
			t.Errorf("snapshot has section %q", name)
		}
	}
	if _, metaOff, _ := findEntry(t, snap, secMeta); binary.LittleEndian.Uint64(snap[metaOff+32:]) != 0 {
		t.Errorf("meta flags = %#x, want 0", binary.LittleEndian.Uint64(snap[metaOff+32:]))
	}
}

// TestSnapshotUnsortedEntMapRejected pins the canonical-encoding rule: the
// entity map must be strictly (table, key)-sorted, which also catches
// duplicates.
func TestSnapshotUnsortedEntMapRejected(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	if len(eng.mapEntries) < 2 {
		t.Fatal("fixture has too few mapping entries")
	}
	// Re-save with the first two mapping entries swapped; all CRCs are
	// recomputed by Save, so only the sortedness check can reject it.
	eng.mapEntries[0], eng.mapEntries[1] = eng.mapEntries[1], eng.mapEntries[0]
	swapped := saveV2(t, eng)
	eng.mapEntries[0], eng.mapEntries[1] = eng.mapEntries[1], eng.mapEntries[0]
	_, err := LoadEngine(bytes.NewReader(swapped))
	if err == nil {
		t.Fatal("unsorted entity map accepted")
	}
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("error is not ErrBadSnapshot: %v", err)
	}
}

// TestLoadEngineStreamSource checks the io.Reader path reports stream
// provenance and zero stage timings.
func TestLoadEngineStreamSource(t *testing.T) {
	snap := saveV2(t, fig2Engine(t, DefaultConfig()))
	loaded, err := LoadEngine(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	st := loaded.BuildStats()
	if st.Source != SourceStream {
		t.Errorf("Source = %q, want %q", st.Source, SourceStream)
	}
	if st.PageRank.Duration != 0 || st.Total != 0 {
		t.Errorf("loaded engine reports build work: %+v", st)
	}
}
