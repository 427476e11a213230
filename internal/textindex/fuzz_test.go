package textindex

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize fuzzes the single tokenization rule every subsystem shares
// (index construction, query parsing, word counts). Its invariants are load
// bearing: a token that were empty, mixed-case or contained separator runes
// would silently desynchronize |v|, |v ∩ Q| and tf between the index and
// the scoring model.
func FuzzTokenize(f *testing.F) {
	f.Add("The TSIMMIS Project")
	f.Add("  ")
	f.Add("a-b_c.d,e")
	f.Add("ünïcøde Wörds 123abc")
	f.Add("\x00\xff\xfe broken utf8 \xc3\x28")
	f.Add("İstanbul ﬂag ǅungla")
	f.Fuzz(func(t *testing.T, text string) {
		toks := Tokenize(text)
		for i, tok := range toks {
			if tok == "" {
				t.Fatalf("token %d of %q is empty", i, text)
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q of %q is not lowercase", tok, text)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsNumber(r) {
					t.Fatalf("token %q of %q contains separator rune %q", tok, text, r)
				}
			}
		}
		if got := WordCount(text); got != len(toks) {
			t.Fatalf("WordCount(%q) = %d, Tokenize yields %d tokens", text, got, len(toks))
		}
		// Re-tokenizing the joined tokens must be a fixed point: tokens
		// contain no separators and lowercasing is idempotent.
		again := Tokenize(strings.Join(toks, " "))
		if len(again) != len(toks) {
			t.Fatalf("re-tokenizing %q tokens changed count %d -> %d", text, len(toks), len(again))
		}
		for i := range toks {
			if toks[i] != again[i] {
				t.Fatalf("re-tokenizing %q changed token %d: %q -> %q", text, i, toks[i], again[i])
			}
		}
	})
}

// FuzzTextDecode throws arbitrary bytes at the text-section decoder, which
// reads counts and lengths before it can see the data they describe. Every
// input must either be refused or decode to an index that re-encodes
// byte-identically: the decoder accepts exactly the canonical encodings.
// Snapshot-level fuzzing rarely reaches this decoder, because random
// mutations fail the section checksums first.
func FuzzTextDecode(f *testing.F) {
	g := testGraph()
	valid := Build(g).Encode()
	f.Add(valid, uint32(g.NumNodes()))
	rng := rand.New(rand.NewSource(1))
	rg := randomTextGraph(rng, 40)
	f.Add(Build(rg).Encode(), uint32(rg.NumNodes()))
	f.Add(Build(randomTextGraph(rng, 0)).Encode(), uint32(0))
	termOff, postingOff := encodedTerm(valid)
	for _, m := range []struct{ off, v int }{
		{4, 1},                    // version 1
		{termOff, 1 << 30},        // huge term length
		{postingOff, 4},           // posting node out of range
		{postingOff + 4, 0},       // zero tf
		{16, len(valid)},          // posting count beyond the data
		{postingOff - 4, 1 << 20}, // term posting count beyond the data
	} {
		d := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(d[m.off:], uint32(m.v))
		f.Add(d, uint32(g.NumNodes()))
	}
	f.Fuzz(func(t *testing.T, data []byte, numNodes uint32) {
		ix, err := Decode(data, int(numNodes))
		if err != nil {
			return
		}
		if again := ix.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("decoded index re-encodes to %d different bytes (input %d)", len(again), len(data))
		}
	})
}
