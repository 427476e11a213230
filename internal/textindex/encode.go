package textindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"cirank/internal/graph"
)

// Binary encoding of the text index, so a snapshot reload can skip
// re-tokenizing every node. The index is postings only, and so is its
// encoding. All integers are little-endian u32 and terms are emitted in
// strictly ascending order, so the encoding is deterministic — whole-snapshot
// byte comparisons depend on it:
//
//	magic "CITX" | version u32 (=2) | numNodes u32 | numTerms u32 | numPostings u32
//	per term: length u32 | term bytes | count u32 | count × (node u32 | tf u32)
//
// numPostings lets the decoder carve every posting list from one array. Only
// this version is read; a version-1 section is refused with a re-save hint.

const (
	indexMagic   = "CITX"
	indexVersion = 2
	headerSize   = 20
	// minTermSize is the smallest encoded term: an empty name and no
	// postings, i.e. the two length words.
	minTermSize = 8
	postingSize = 8
	// maxTermLen bounds one term's byte length on the wire; the tokenizer
	// never produces terms anywhere near this, so longer is corruption.
	maxTermLen = 1 << 20
)

// errVersion1 refuses the previous layout, which snapshots saved before
// version 2 still carry.
var errVersion1 = errors.New("textindex: version 1 layout is no longer read; re-save the snapshot")

// Encode returns the index's binary encoding. It is identical for every
// build of the same corpus.
func (ix *Index) Encode() []byte {
	terms := make([]string, 0, len(ix.postings))
	size, total := headerSize, 0
	for t, ps := range ix.postings {
		terms = append(terms, t)
		size += minTermSize + len(t) + postingSize*len(ps)
		total += len(ps)
	}
	sort.Strings(terms)
	b := make([]byte, 0, size)
	b = append(b, indexMagic...)
	b = binary.LittleEndian.AppendUint32(b, indexVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.numNodes))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(terms)))
	b = binary.LittleEndian.AppendUint32(b, uint32(total))
	for _, t := range terms {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t)))
		b = append(b, t...)
		ps := ix.postings[t]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ps)))
		for _, p := range ps {
			b = binary.LittleEndian.AppendUint32(b, uint32(p.Node))
			b = binary.LittleEndian.AppendUint32(b, uint32(p.TF))
		}
	}
	return b
}

// Decode rebuilds an index from Encode's output, validating it against the
// graph it will serve: the index must cover exactly numNodes nodes, terms
// must be strictly sorted, posting lists strictly ascending with in-range
// nodes and positive term frequencies, and every count is bounded by the
// bytes left before it sizes an allocation. The decoded index copies what it
// keeps, so b may be released or unmapped afterwards.
func Decode(b []byte, numNodes int) (*Index, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("textindex: %d bytes, too short for a header", len(b))
	}
	if string(b[:4]) != indexMagic {
		return nil, fmt.Errorf("textindex: bad magic %q", b[:4])
	}
	switch v := binary.LittleEndian.Uint32(b[4:]); v {
	case indexVersion:
	case 1:
		return nil, errVersion1
	default:
		return nil, fmt.Errorf("textindex: unsupported version %d", v)
	}
	if n := binary.LittleEndian.Uint32(b[8:]); uint64(n) != uint64(numNodes) {
		return nil, fmt.Errorf("textindex: index covers %d nodes, graph has %d", n, numNodes)
	}
	numTerms := uint64(binary.LittleEndian.Uint32(b[12:]))
	numPostings := uint64(binary.LittleEndian.Uint32(b[16:]))
	body := uint64(len(b) - headerSize)
	if numTerms*minTermSize+numPostings*postingSize > body {
		return nil, fmt.Errorf("textindex: %d terms and %d postings do not fit in %d bytes", numTerms, numPostings, body)
	}
	ix := &Index{postings: make(map[string][]Posting, numTerms), numNodes: numNodes}
	// One backing array holds every posting list; each term's list is
	// capacity-capped so an append by a caller cannot reach its neighbour.
	all := make([]Posting, numPostings)
	used := 0
	c := b[headerSize:]
	prevTerm := ""
	for t := uint64(0); t < numTerms; t++ {
		if len(c) < 4 {
			return nil, fmt.Errorf("textindex: term %d truncated", t)
		}
		l := binary.LittleEndian.Uint32(c)
		if l > maxTermLen || uint64(l)+4 > uint64(len(c)) {
			return nil, fmt.Errorf("textindex: term %d length %d exceeds the limit or the data", t, l)
		}
		term := string(c[4 : 4+l])
		c = c[4+l:]
		if t > 0 && term <= prevTerm {
			return nil, fmt.Errorf("textindex: terms not strictly sorted at %q", term)
		}
		prevTerm = term
		if len(c) < 4 {
			return nil, fmt.Errorf("textindex: posting count of %q truncated", term)
		}
		count := uint64(binary.LittleEndian.Uint32(c))
		c = c[4:]
		if count > uint64(numNodes) || count > numPostings-uint64(used) || count*postingSize > uint64(len(c)) {
			return nil, fmt.Errorf("textindex: term %q claims %d postings (%d nodes, %d postings left, %d bytes left)",
				term, count, numNodes, numPostings-uint64(used), len(c))
		}
		ps := all[used : used+int(count) : used+int(count)]
		used += int(count)
		prev := graph.NodeID(-1)
		for i := range ps {
			node := binary.LittleEndian.Uint32(c)
			tf := binary.LittleEndian.Uint32(c[4:])
			c = c[postingSize:]
			if node >= uint32(numNodes) {
				return nil, fmt.Errorf("textindex: posting of %q references node %d of %d", term, node, numNodes)
			}
			if graph.NodeID(node) <= prev {
				return nil, fmt.Errorf("textindex: postings of %q not strictly sorted at node %d", term, node)
			}
			prev = graph.NodeID(node)
			if tf == 0 {
				return nil, fmt.Errorf("textindex: posting of %q has zero tf", term)
			}
			ps[i] = Posting{Node: graph.NodeID(node), TF: int(tf)}
		}
		ix.postings[term] = ps
	}
	if uint64(used) != numPostings {
		return nil, fmt.Errorf("textindex: header claims %d postings, terms hold %d", numPostings, used)
	}
	if len(c) != 0 {
		return nil, fmt.Errorf("textindex: %d trailing bytes", len(c))
	}
	return ix, nil
}
