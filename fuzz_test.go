package cirank

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"cirank/internal/graph"
)

// FuzzSnapshotLoad throws arbitrary bytes at the snapshot decoder. The
// decoder reads attacker-controllable counts (node totals, string lengths,
// star-table sizes, float bit patterns) before it can see the rest of the
// stream, so every length must be validated before it sizes an allocation
// and every float before it parameterizes the model. Any input that loads
// must round-trip: Save then LoadEngine again, byte-comparably, and serve a
// query without panicking, and every edge of its graph has its reverse.
func FuzzSnapshotLoad(f *testing.F) {
	eng := fig2Engine(f, DefaultConfig())
	var full bytes.Buffer
	if err := eng.Save(&full); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	cfg := DefaultConfig()
	cfg.IndexDepth = 0
	plain := fig2Engine(f, cfg)
	var noIdx bytes.Buffer
	if err := plain.Save(&noIdx); err != nil {
		f.Fatal(err)
	}
	f.Add(noIdx.Bytes())
	// Truncations slice through every section boundary.
	for _, cut := range []int{0, 3, 4, 8, 20, 28, 40, full.Len() / 2, full.Len() - 1} {
		if cut <= full.Len() {
			f.Add(full.Bytes()[:cut])
		}
	}
	// v2 structural corruptions: each seed lands on a distinct validation
	// branch of the sectioned decoder (the helpers recompute the CRCs the
	// mutation does not target, so the corruption is reached, not masked by
	// the checksum gate).
	snap := full.Bytes()
	metaEntry, metaOff, _ := findEntry(f, snap, secMeta)
	f.Add(snap[:snapHeaderSize+snapEntrySize-4])                         // truncated section table
	f.Add(mutated(snap, func(d []byte) { d[snapHeaderSize+2] ^= 0xff })) // wrong table CRC
	f.Add(mutated(snap, func(d []byte) { d[len(d)-1] ^= 0xff }))         // wrong section CRC
	f.Add(mutated(snap, func(d []byte) {                                 // unknown section name
		copy(d[metaEntry:metaEntry+snapNameLen], append([]byte("bogus"), make([]byte, snapNameLen-5)...))
		fixTableCRC(d)
	}))
	f.Add(mutated(snap, func(d []byte) { // overlapping sections
		nodesEntry, _, _ := findEntry(f, d, secNodes)
		binary.LittleEndian.PutUint64(d[nodesEntry+16:], uint64(metaOff))
		fixTableCRC(d)
	}))
	f.Add(mutated(snap, func(d []byte) { // star sections without the flag
		binary.LittleEndian.PutUint64(d[metaOff+32:], 0)
		fixSectionCRC(d, metaEntry)
		fixTableCRC(d)
	}))
	f.Add(mutated(snap, func(d []byte) { // absurd node count
		binary.LittleEndian.PutUint64(d[metaOff+16:], 1<<40)
		fixSectionCRC(d, metaEntry)
		fixTableCRC(d)
	}))
	for _, data := range textSectionCorruptions(f, eng) {
		f.Add(data)
	}
	oneWay, err := os.ReadFile(oneWayFixturePath) // valid but for one edge's reverse
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oneWay)
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadEngine(bytes.NewReader(data))
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		var buf bytes.Buffer
		if err := loaded.Save(&buf); err != nil {
			t.Fatalf("loaded engine fails to re-save: %v", err)
		}
		again, err := LoadEngine(&buf)
		if err != nil {
			t.Fatalf("re-saved snapshot fails to load: %v", err)
		}
		if again.NumNodes() != loaded.NumNodes() || again.NumEdges() != loaded.NumEdges() {
			t.Fatalf("roundtrip changed graph shape: %d/%d -> %d/%d",
				loaded.NumNodes(), loaded.NumEdges(), again.NumNodes(), again.NumEdges())
		}
		for v := graph.NodeID(0); int(v) < loaded.g.NumNodes(); v++ {
			for _, e := range loaded.g.OutEdges(v) {
				if !loaded.g.HasEdge(e.To, v) {
					t.Fatalf("loaded a graph whose edge %d→%d has no reverse", v, e.To)
				}
			}
		}
		if _, err := loaded.Search("tsimmis ullman", 2); err != nil && !strings.Contains(err.Error(), "empty") {
			t.Fatalf("loaded engine cannot search: %v", err)
		}
	})
}

// FuzzQueryParse drives the public query path — tokenization, option
// validation, branch-and-bound search — with arbitrary query strings and
// option values against a small engine. Whatever the input, the engine must
// either return a typed error or a well-formed result: at most k answers,
// scores non-increasing, every answer non-empty.
func FuzzQueryParse(f *testing.F) {
	eng := fig2Engine(f, DefaultConfig())
	f.Add("papakonstantinou ullman", 2, 4)
	f.Add("TSIMMIS", 1, 0)
	f.Add("", 5, 4)
	f.Add("ullman \x00\xffmediation", 3, 6)
	f.Add(strings.Repeat("many words ", 40), 1, 2)
	f.Fuzz(func(t *testing.T, query string, k, diameter int) {
		opts := SearchOptions{
			Diameter: diameter % 8,
			// Keep adversarial inputs cheap; the cap is itself a validated
			// option so exercising it here is part of the surface.
			MaxExpansions: 2000,
		}
		terms := strings.Fields(query)
		res, err := eng.SearchTerms(terms, k%8, opts)
		if err != nil {
			return // validation rejected the combination: fine
		}
		if len(res) > k%8 {
			t.Fatalf("got %d results for k=%d", len(res), k%8)
		}
		for i, r := range res {
			if len(r.Rows) == 0 {
				t.Fatalf("result %d has no rows", i)
			}
			if i > 0 && r.Score > res[i-1].Score {
				t.Fatalf("scores increase at %d: %g after %g", i, r.Score, res[i-1].Score)
			}
		}
		// The string entry point shares the validation but adds
		// tokenization of raw (possibly hostile) query text.
		if _, err := eng.Search(query, 3); err != nil {
			// Only the documented rejections are acceptable.
			if !strings.Contains(err.Error(), "cirank:") && !strings.Contains(err.Error(), "search:") {
				t.Fatalf("untyped error from Search(%q): %v", query, err)
			}
		}
	})
}
