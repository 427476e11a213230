package textindex

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := testGraph()
	ix := Build(g)
	enc := ix.Encode()
	loaded, err := Decode(enc, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, ix) {
		t.Fatal("decoded index differs from the original")
	}
	for _, term := range []string{"tsimmis", "ullman", "mediation"} {
		if got, want := loaded.Postings(term), ix.Postings(term); !reflect.DeepEqual(got, want) {
			t.Errorf("Postings(%q) = %+v, want %+v", term, got, want)
		}
	}
	// The encoding is deterministic: re-encoding either index gives the
	// same bytes.
	if !bytes.Equal(ix.Encode(), enc) || !bytes.Equal(loaded.Encode(), enc) {
		t.Error("two encodings of the same index differ")
	}
	// A decoded posting list is capacity-capped: appending to it must not
	// overwrite the next term's postings in the shared backing array.
	ps := loaded.Postings("capability")
	_ = append(ps, Posting{Node: 0, TF: 99})
	if !reflect.DeepEqual(loaded, ix) {
		t.Error("appending to one term's postings changed another's")
	}
}

// encodedTerm locates the first term of an encoding: the offset of its
// length word and of its first posting.
func encodedTerm(enc []byte) (termOff, postingOff int) {
	termOff = headerSize
	l := int(binary.LittleEndian.Uint32(enc[termOff:]))
	return termOff, termOff + 4 + l + 4
}

func TestDecodeRejectsCorruptSections(t *testing.T) {
	g := testGraph()
	valid := Build(g).Encode()
	termOff, postingOff := encodedTerm(valid)
	mutate := func(f func(d []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	put := func(off int, v uint32) []byte {
		return mutate(func(d []byte) []byte { binary.LittleEndian.PutUint32(d[off:], v); return d })
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "too short"},
		{"bad magic", mutate(func(d []byte) []byte { d[0] = 'X'; return d }), "magic"},
		{"version 1", put(4, 1), "re-save"},
		{"future version", put(4, 99), "unsupported version"},
		{"truncated header", valid[:12], "too short"},
		{"node count", put(8, uint32(g.NumNodes()+1)), "nodes"},
		{"huge term count", put(12, 1<<30), "do not fit"},
		{"huge posting count", put(16, 1<<30), "do not fit"},
		{"huge term length", put(termOff, 1<<30), "length"},
		{"unsorted terms", mutate(func(d []byte) []byte { d[termOff+4] = 'z'; return d }), "not strictly sorted"},
		{"posting node out of range", put(postingOff, uint32(g.NumNodes())), "references node"},
		{"zero tf", put(postingOff+4, 0), "zero tf"},
		{"posting count above node count", put(postingOff-4, uint32(g.NumNodes()+1)), "claims"},
		{"fewer postings than header", put(16, binary.LittleEndian.Uint32(valid[16:])-1), "claims"},
		{"truncated", valid[:len(valid)-3], "claims"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), "trailing"},
	}
	for _, c := range cases {
		_, err := Decode(c.data, g.NumNodes())
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}
